package router

// window.go keeps the words the arbiter scans read in place of per-packet
// state. Each (input port, channel) queue has a picker window — its first
// Config.Window packets, the entries the input arbiter examines — indexed
// by its queue record's nom and want words (queue.go); removals shift
// positions down, so the words shift with them. wantIn[in] is the union
// of input in's window wants, so a scan passes over an input that wants
// no ready output without loading a queue record. The router-wide oldAt
// bound lets a scan skip anti-starvation aging until some window packet
// can turn old.

import (
	"math"
	"math/bits"

	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// maxWindow is the widest picker window a queue's nom word can index.
const maxWindow = 32

// maxTicks is the oldAt bound of a router with no packet that can age.
const maxTicks = sim.Ticks(math.MaxInt64)

// open returns the positions among the first limit that a scan visits:
// those not locked.
func (q *queue) open(limit int) uint32 { return lowBits(limit) &^ q.nom }

// lowBits returns a word with bits [0, n) set, for n <= 32.
func lowBits(n int) uint32 { return uint32(uint64(1)<<uint(n) - 1) }

// dropBit deletes bit p of w, shifting the bits above it down by one.
func dropBit(w uint32, p int) uint32 { return w&lowBits(p) | w>>uint(p+1)<<uint(p) }

// enterWindow indexes packet e, which has just entered the window of
// queue q on input in: a new arrival, or a packet sliding in behind a
// departure. A packet enters unlocked, so its nom bit is already clear.
func (r *Router) enterWindow(in ports.In, q *queue, e *pkEntry) {
	q.want |= e.cand.outs
	r.wantIn[in] |= e.cand.outs
	r.noteAging(e)
}

// leaveWindow re-indexes queue (in, ch) after the packet at position pos
// left it.
func (r *Router) leaveWindow(in ports.In, ch vc.Channel, pos int) {
	if pos >= r.cfg.Window {
		return
	}
	q := &r.queues[in][ch]
	q.nom = dropBit(q.nom, pos)
	was := q.want
	q.want = 0
	for i, limit := 0, min(int(q.n), r.cfg.Window); i < limit; i++ {
		q.want |= r.slab.e[q.at(r.store, i)].cand.outs
	}
	if was&^q.want != 0 {
		// The window lost an output; the input's union may have too.
		var want ports.OutMask
		for w := r.busyCh[in]; w != 0; w &= w - 1 {
			want |= r.queues[in][bits.TrailingZeros32(w)].want
		}
		r.wantIn[in] = want
	}
	if int(q.n) >= r.cfg.Window {
		r.enterWindow(in, q, &r.slab.e[q.at(r.store, r.cfg.Window-1)])
	}
}

// ageWindow applies anti-starvation aging to the first limit packets of
// q — the picker window — in queue order, as a scan that colors each
// packet before testing it would. It returns the first window position
// the drain filter covers: 0 if the router was already draining, the
// position whose aging started the drain, or limit if neither.
func (r *Router) ageWindow(q *queue, limit int, now sim.Ticks) int {
	drainFrom := limit
	if r.draining {
		drainFrom = 0
	}
	if now < r.oldAt {
		return drainFrom
	}
	for i := 0; i < limit; i++ {
		r.markOld(q.at(r.store, i), now)
		if r.draining && i < drainFrom {
			drainFrom = i
		}
	}
	return drainFrom
}

// settleOldAt re-derives the oldAt bound after a scan that aged packets:
// the earliest tick a non-old packet now in a picker window turns old.
func (r *Router) settleOldAt(now sim.Ticks) {
	if now < r.oldAt {
		return
	}
	r.oldAt = maxTicks
	for in := ports.In(0); in < ports.NumIn; in++ {
		for w := r.busyCh[in]; w != 0; w &= w - 1 {
			q := &r.queues[in][bits.TrailingZeros32(w)]
			for i, limit := 0, min(int(q.n), r.cfg.Window); i < limit; i++ {
				r.noteAging(&r.slab.e[q.at(r.store, i)])
			}
		}
	}
}

// noteAging lowers the oldAt bound to cover a packet in a picker window.
func (r *Router) noteAging(e *pkEntry) {
	if at := e.headerArrive + r.ageTicks; e.flags&pkOld == 0 && at < r.oldAt {
		r.oldAt = at
	}
}
