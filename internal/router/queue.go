package router

// queue.go holds the router's per-(input port, virtual channel) packet
// queues. Each queue is one 16-byte record: its FIFO ring's place in the
// router's single handle store, and beside it the picker-window words
// (window.go) a scan tests before it reads any handle. The 152 records
// sit in one array inside the Router and every ring in one []int32 store,
// so a scan over an input's channels walks adjacent records and a router
// is built with one store allocation instead of one per queue.
//
// Queues hold int32 handles into the packet-state slab rather than
// pointers, so the slab can grow (its backing array reallocates) without
// invalidating queue contents. Operations preserve FIFO (arrival) order,
// including mid-queue removal — the 21364 dispatches the oldest eligible
// packet, which need not be the head. Removal shifts whichever side of
// the ring is shorter.

import (
	"fmt"

	"alpha21364/internal/ports"
	"alpha21364/internal/vc"
)

// queue is one fixed-capacity FIFO of slab handles plus its picker
// window's words. Its ring occupies store[off : off+cap], with the i-th
// oldest handle at off + (head+i) mod cap; Config.Validate keeps every
// offset and count within uint16.
type queue struct {
	// nom has bit i set when the packet at queue position i is locked by
	// an in-flight nomination or wave.
	nom uint32
	// want is the union of the window packets' candidate output ports: a
	// window that wants no ready output cannot nominate.
	want ports.OutMask

	off, cap, head, n uint16
}

// layoutQueues tiles one store with every queue's ring, input-major, each
// sized to its channel's configured capacity, and returns the store.
func layoutQueues(qs *[ports.NumIn][vc.NumChannels]queue, cfg vc.Config) []int32 {
	off := 0
	for in := range qs {
		for ch := range qs[in] {
			c := cfg.Capacity(vc.Channel(ch))
			qs[in][ch] = queue{off: uint16(off), cap: uint16(c)}
			off += c
		}
	}
	return make([]int32, off)
}

// pos returns the ring slot, relative to off, of the i-th oldest handle.
func (q *queue) pos(i int) int {
	s := int(q.head) + i
	if s >= int(q.cap) {
		s -= int(q.cap)
	}
	return s
}

// ring returns the queue's slots in store.
func (q *queue) ring(store []int32) []int32 {
	return store[q.off : int(q.off)+int(q.cap)]
}

// at returns the i-th oldest handle (0 is the front), for i < n.
func (q *queue) at(store []int32, i int) int32 { return store[int(q.off)+q.pos(i)] }

// push appends a handle at the tail; it panics when full (the router's
// credit accounting must prevent that).
func (q *queue) push(store []int32, v int32) {
	if q.n == q.cap {
		panic("router: push on full queue — credit accounting broken")
	}
	store[int(q.off)+q.pos(int(q.n))] = v
	q.n++
}

// removeAt deletes the i-th oldest handle, preserving order. It shifts
// the shorter side of the ring.
func (q *queue) removeAt(store []int32, i int) {
	n := int(q.n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("router: queue remove %d out of range (len %d)", i, n))
	}
	buf := q.ring(store)
	if i < n-1-i {
		// Shift the front forward over the hole.
		for j := i; j > 0; j-- {
			buf[q.pos(j)] = buf[q.pos(j-1)]
		}
		q.head = uint16(q.pos(1))
	} else {
		// Shift the tail back over the hole.
		for j := i; j < n-1; j++ {
			buf[q.pos(j)] = buf[q.pos(j+1)]
		}
	}
	q.n--
}

// index returns the position of the first occurrence of v (0 is the
// front), or -1 if v is not queued.
func (q *queue) index(store []int32, v int32) int {
	buf := q.ring(store)
	for i := 0; i < int(q.n); i++ {
		if buf[q.pos(i)] == v {
			return i
		}
	}
	return -1
}
