package router

// window.go keeps the words the arbiter scans read in place of per-packet
// state. Each (input port, channel) queue has a picker window — its first
// Config.Window packets, the entries the input arbiter examines — and a
// window record indexing it by queue position; removals shift positions
// down, so the words shift with them. The router-wide oldAt bound lets a
// scan skip anti-starvation aging until some window packet can turn old.

import (
	"math"
	"math/bits"

	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// maxWindow is the widest picker window a window record can index.
const maxWindow = 32

// maxTicks is the oldAt bound of a router with no packet that can age.
const maxTicks = sim.Ticks(math.MaxInt64)

// window indexes one queue's picker window.
type window struct {
	// nom has bit i set when the packet at queue position i is locked by
	// an in-flight nomination or wave.
	nom uint32
	// want is the union of the window packets' candidate output ports: a
	// window that wants no ready output cannot nominate.
	want ports.OutMask
}

// open returns the positions among the first limit that a scan visits:
// those not locked.
func (w *window) open(limit int) uint32 { return lowBits(limit) &^ w.nom }

// lowBits returns a word with bits [0, n) set, for n <= 32.
func lowBits(n int) uint32 { return uint32(uint64(1)<<uint(n) - 1) }

// dropBit deletes bit p of w, shifting the bits above it down by one.
func dropBit(w uint32, p int) uint32 { return w&lowBits(p) | w>>uint(p+1)<<uint(p) }

// enterWindow indexes packet e, which has just entered window w: a new
// arrival, or a packet sliding in behind a departure. A packet enters
// unlocked, so its nom bit is already clear.
func (r *Router) enterWindow(w *window, e *pkEntry) {
	w.want |= e.cand.outs
	r.noteAging(e)
}

// leaveWindow re-indexes queue (in, ch) after the packet at position pos
// left it.
func (r *Router) leaveWindow(in ports.In, ch vc.Channel, pos int) {
	if pos >= r.cfg.Window {
		return
	}
	w := &r.win[in][ch]
	w.nom = dropBit(w.nom, pos)
	q := &r.queues[in][ch]
	w.want = 0
	for i, limit := 0, min(q.Len(), r.cfg.Window); i < limit; i++ {
		w.want |= r.slab.e[q.At(i)].cand.outs
	}
	if q.Len() >= r.cfg.Window {
		r.enterWindow(w, &r.slab.e[q.At(r.cfg.Window-1)])
	}
}

// ageWindow applies anti-starvation aging to the first limit packets of
// q — the picker window — in queue order, as a scan that colors each
// packet before testing it would. It returns the first window position
// the drain filter covers: 0 if the router was already draining, the
// position whose aging started the drain, or limit if neither.
func (r *Router) ageWindow(q *vc.Ring, limit int, now sim.Ticks) int {
	drainFrom := limit
	if r.draining {
		drainFrom = 0
	}
	if now < r.oldAt {
		return drainFrom
	}
	for i := 0; i < limit; i++ {
		r.markOld(q.At(i), now)
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
			for i, limit := 0, min(q.Len(), r.cfg.Window); i < limit; i++ {
				r.noteAging(&r.slab.e[q.At(i)])
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
