package sim

// wheel.go is the engine's event queue: a hierarchical, bitmap-indexed
// tick wheel (calendar queue) over intrusive event nodes drawn from a
// free list, replacing the closure-per-event binary heap. Steady-state
// scheduling allocates nothing: a node is recycled the moment its event
// dispatches, and slot membership is intrusive (each node carries its
// own next pointer).
//
// Layout. Four levels of 256 slots each cover any delay below 2^32 ticks
// (~358 ms of simulated time); rarer, farther events wait in an overflow
// list. A node scheduled delta ticks ahead lands at the lowest level
// whose span contains delta, in the slot indexed by the corresponding
// 8-bit digit of its absolute time. Advancing time "cascades" the newly
// entered slot of each higher level down into finer levels. Per-level
// occupancy bitmaps (4 x 256 bits) make "find the next busy slot" a few
// TrailingZeros64 instructions, so skipping idle gaps costs O(1) — the
// indexed part of the indexed tick wheel.
//
// Determinism. The engine's contract is dispatch in (at, seq) order —
// absolute time, then schedule order. Every slot list is kept sorted by
// seq: fresh schedules carry the globally largest seq and append in
// O(1); cascaded nodes (whose seq may predate nodes already in the
// target slot) merge at their sorted position. Level-0 slots therefore
// pop in exact (at, seq) order, and the randomized differential test in
// sim_test.go checks the whole structure against a reference heap.
//
// Stale slots. A clocked component may schedule work at the current
// tick; the engine's causality rule says it runs on the following tick.
// When the engine leaves a tick it sweeps that tick's level-0 slot into
// the overdue list, which popDue serves first — preserving the heap's
// ordering, where a past-due event outranks everything current.

import "math/bits"

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelSpan is the horizon of the wheel proper; events scheduled
	// farther than this ahead wait in the overflow list.
	wheelSpan = Ticks(1) << (wheelBits * wheelLevels)
	// overflowCheckShift: the overflow list is refiltered whenever time
	// crosses a 2^overflowCheckShift boundary, which is guaranteed to
	// happen before any overflow node comes within the wheel's horizon.
	overflowCheckShift = wheelBits*wheelLevels - 1
)

// eventNode is one scheduled event: an intrusive list node carrying a
// registered-handler id and its small fixed-size payload.
type eventNode struct {
	next *eventNode
	at   Ticks
	seq  uint64
	h    HandlerID
	args EventArgs
}

// nodeList is an intrusive singly-linked list with O(1) append.
type nodeList struct {
	head, tail *eventNode
}

func (l *nodeList) append(n *eventNode) {
	n.next = nil
	if l.tail == nil {
		l.head, l.tail = n, n
		return
	}
	l.tail.next = n
	l.tail = n
}

// insertBySeq places n at its seq-sorted position. Cascades use it:
// a node parked at a coarse level may be older (smaller seq) than nodes
// already sitting in the fine slot it lands in.
func (l *nodeList) insertBySeq(n *eventNode) {
	if l.tail == nil || l.tail.seq < n.seq {
		l.append(n)
		return
	}
	if l.head.seq > n.seq {
		n.next = l.head
		l.head = n
		return
	}
	p := l.head
	for p.next != nil && p.next.seq < n.seq {
		p = p.next
	}
	n.next = p.next
	p.next = n
	if n.next == nil {
		l.tail = n
	}
}

func (l *nodeList) popHead() *eventNode {
	n := l.head
	if n == nil {
		return nil
	}
	l.head = n.next
	if l.head == nil {
		l.tail = nil
	}
	n.next = nil
	return n
}

// take detaches and returns the whole chain.
func (l *nodeList) take() *eventNode {
	n := l.head
	l.head, l.tail = nil, nil
	return n
}

// timerWheel is the hierarchical tick wheel plus its free list.
type timerWheel struct {
	cur   Ticks // placement origin; advanced by advanceTo
	count int   // nodes in the wheel levels
	slots [wheelLevels][wheelSlots]nodeList
	occ   [wheelLevels][wheelSlots / 64]uint64

	overflow  nodeList // at - cur >= wheelSpan at insert; seq-ordered
	nOverflow int
	overdue   nodeList // swept stale slots; (at, seq)-ordered FIFO
	nOverdue  int

	free *eventNode
	// chunk is the unused rest of the last block of nodes allocated.
	chunk []eventNode
}

// nodeChunk is how many event nodes the wheel allocates at a time.
const nodeChunk = 64

// pending reports whether any event is queued.
func (w *timerWheel) pending() bool {
	return w.count > 0 || w.nOverflow > 0 || w.nOverdue > 0
}

// alloc takes a node from the free list or, the first time the queue
// grows past its high-water mark, from the current block, allocating a
// block of nodeChunk when that runs out.
func (w *timerWheel) alloc() *eventNode {
	if n := w.free; n != nil {
		w.free = n.next
		n.next = nil
		return n
	}
	if len(w.chunk) == 0 {
		w.chunk = make([]eventNode, nodeChunk)
	}
	n := &w.chunk[0]
	w.chunk = w.chunk[1:]
	return n
}

// release recycles a dispatched node.
func (w *timerWheel) release(n *eventNode) {
	n.args = EventArgs{} // drop payload references for the GC
	n.next = w.free
	w.free = n
}

// levelFor maps a non-negative delta below wheelSpan to its wheel level.
func levelFor(delta Ticks) int {
	switch {
	case delta < 1<<wheelBits:
		return 0
	case delta < 1<<(2*wheelBits):
		return 1
	case delta < 1<<(3*wheelBits):
		return 2
	default:
		return 3
	}
}

func (w *timerWheel) mark(lvl, slot int)  { w.occ[lvl][slot>>6] |= 1 << uint(slot&63) }
func (w *timerWheel) clear(lvl, slot int) { w.occ[lvl][slot>>6] &^= 1 << uint(slot&63) }
func (w *timerWheel) occupied(lvl, slot int) bool {
	return w.occ[lvl][slot>>6]&(1<<uint(slot&63)) != 0
}

// insert places a node relative to the current time. sorted selects
// seq-sorted insertion (cascades and refilters); fresh schedules append.
// The caller guarantees n.at >= w.cur.
func (w *timerWheel) insert(n *eventNode, sorted bool) {
	delta := n.at - w.cur
	if delta >= wheelSpan {
		if sorted {
			w.overflow.insertBySeq(n)
		} else {
			w.overflow.append(n)
		}
		w.nOverflow++
		return
	}
	lvl := levelFor(delta)
	slot := int(n.at>>(wheelBits*uint(lvl))) & wheelMask
	if sorted {
		w.slots[lvl][slot].insertBySeq(n)
	} else {
		w.slots[lvl][slot].append(n)
	}
	w.mark(lvl, slot)
	w.count++
}

// cascadeSlot redistributes one slot's chain into finer levels relative
// to the (already advanced) current time.
func (w *timerWheel) cascadeSlot(lvl, slot int) {
	if !w.occupied(lvl, slot) {
		return
	}
	w.clear(lvl, slot)
	n := w.slots[lvl][slot].take()
	for n != nil {
		next := n.next
		w.count--
		w.insert(n, true)
		n = next
	}
}

// refilterOverflow re-examines the overflow list after a large time
// advance, moving nodes that now fall within the wheel's horizon.
func (w *timerWheel) refilterOverflow() {
	n := w.overflow.take()
	w.nOverflow = 0
	for n != nil {
		next := n.next
		if n.at-w.cur >= wheelSpan {
			w.overflow.append(n)
			w.nOverflow++
		} else {
			w.insert(n, true)
		}
		n = next
	}
}

// advanceTo moves the wheel's origin forward to t. The caller guarantees
// no pending node's time lies strictly between the old origin and t —
// the engine only advances to the earliest pending dispatch time.
func (w *timerWheel) advanceTo(t Ticks) {
	if t <= w.cur {
		return
	}
	old := w.cur
	w.cur = t
	if w.overflow.head != nil && (old>>overflowCheckShift) != (t>>overflowCheckShift) {
		w.refilterOverflow()
	}
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		shift := wheelBits * uint(lvl)
		if (old >> shift) == (t >> shift) {
			continue
		}
		w.cascadeSlot(lvl, int(t>>shift)&wheelMask)
	}
}

// sweepStale moves events still sitting in tick `now`'s level-0 slot
// (scheduled at the current tick by clocked components) to the overdue
// list, so leaving the tick cannot strand them behind the scan origin.
func (w *timerWheel) sweepStale(now Ticks) {
	slot := int(now) & wheelMask
	if !w.occupied(0, slot) {
		return
	}
	w.clear(0, slot)
	n := w.slots[0][slot].take()
	for n != nil {
		next := n.next
		if n.at != now {
			panic("sim: tick wheel swept a future event")
		}
		n.next = nil
		w.overdue.append(n)
		w.nOverdue++
		w.count--
		n = next
	}
}

// popDue removes and returns the earliest event with at <= now, in
// (at, seq) order, or nil when none is due. The engine must have
// advanced the wheel to now first.
func (w *timerWheel) popDue(now Ticks) *eventNode {
	if w.overdue.head != nil {
		w.nOverdue--
		return w.overdue.popHead()
	}
	slot := int(now) & wheelMask
	if !w.occupied(0, slot) {
		return nil
	}
	l := &w.slots[0][slot]
	if l.head.at != now {
		return nil // the slot holds next-rotation events, not due ones
	}
	n := l.popHead()
	if l.head == nil {
		w.clear(0, slot)
	}
	w.count--
	return n
}

// nextOcc returns the first occupied slot index >= from at the level, or
// -1 when none.
func (w *timerWheel) nextOcc(lvl, from int) int {
	if from >= wheelSlots {
		return -1
	}
	word := from >> 6
	bits64 := w.occ[lvl][word] &^ ((1 << uint(from&63)) - 1)
	for {
		if bits64 != 0 {
			return word<<6 + bits.TrailingZeros64(bits64)
		}
		word++
		if word >= wheelSlots/64 {
			return -1
		}
		bits64 = w.occ[lvl][word]
	}
}

// minAt walks one slot's chain for its earliest time (lists are ordered
// by seq, not time, at levels above 0).
func (w *timerWheel) minAt(lvl, slot int) Ticks {
	best := Ticks(-1)
	for n := w.slots[lvl][slot].head; n != nil; n = n.next {
		if best < 0 || n.at < best {
			best = n.at
		}
	}
	return best
}

// nextAt returns the earliest pending event time. It never mutates the
// wheel.
func (w *timerWheel) nextAt() (Ticks, bool) {
	if w.overdue.head != nil {
		return w.overdue.head.at, true
	}
	if w.count == 0 && w.nOverflow == 0 {
		return 0, false
	}
	base0 := w.cur &^ Ticks(wheelMask)
	idx0 := int(w.cur) & wheelMask
	// A hit at or ahead of the current level-0 index is provably minimal:
	// wrapped level-0 slots and all higher levels hold strictly later
	// times.
	if s := w.nextOcc(0, idx0); s >= 0 {
		return base0 + Ticks(s), true
	}
	best := Ticks(-1)
	consider := func(t Ticks) {
		if t >= 0 && (best < 0 || t < best) {
			best = t
		}
	}
	// Wrapped level-0 slots hold next-rotation times.
	if s := w.nextOcc(0, 0); s >= 0 && s < idx0 {
		consider(base0 + wheelSlots + Ticks(s))
	}
	// At each higher level, slots are disjoint ascending time ranges:
	// slots ahead of the current index cover this rotation, wrapped slots
	// (including the current index itself) the next one. The first
	// occupied slot in that order holds the level's earliest nodes.
	for lvl := 1; lvl < wheelLevels; lvl++ {
		idx := int(w.cur>>(wheelBits*uint(lvl))) & wheelMask
		s := w.nextOcc(lvl, idx+1)
		if s < 0 {
			if s2 := w.nextOcc(lvl, 0); s2 >= 0 && s2 <= idx {
				s = s2
			}
		}
		if s >= 0 {
			consider(w.minAt(lvl, s))
		}
	}
	for n := w.overflow.head; n != nil; n = n.next {
		consider(n.at)
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
