package router

// state.go holds the router's per-packet bookkeeping: one slab of
// fixed-size entries per router, indexed by int32 handles drawn from a
// free list, with per-(input port, virtual channel) queues of handles
// over it (queue.go). An entry carries everything the arbiter scans read
// — arrival tick, flags, and the packet's static candidate moves, fixed
// when it enters the router — in one cache line, and the steady-state
// router allocates nothing: slab slots and queue slots are recycled as
// packets dispatch.

import (
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// pkEntry flag bits.
const (
	pkNominated uint8 = 1 << iota // locked by an in-flight nomination or wave
	pkOld                         // anti-starvation color
	pkInjected                    // entered through Inject (local pre-arbitration depth)
)

// pkEntry is one buffered packet's router-side state.
type pkEntry struct {
	pkt *packet.Packet
	// upstream is the credit home: where to return the buffer credit this
	// packet occupies (on its channel ch) when it leaves this router. Nil
	// for test-injected packets.
	upstream     *vc.Credits
	headerArrive sim.Ticks // header at this router's pin (or injection time)
	cand         candidates
	ch           vc.Channel // channel occupied at this router
	in           ports.In
	flags        uint8
}

// pkSlab is the per-router packet-state arena: one array of entries
// indexed by int32 handles. Growth is a single append (indices, not
// pointers, are held elsewhere, so reallocation is safe); the free list
// recycles slots, reaching a steady state with zero allocation.
type pkSlab struct {
	e    []pkEntry
	free []int32
}

// alloc returns a fresh slot handle; the caller fills every field.
func (s *pkSlab) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.e = append(s.e, pkEntry{})
	return int32(len(s.e) - 1)
}

// release recycles a slot, dropping its pointer fields for the GC.
func (s *pkSlab) release(idx int32) {
	s.e[idx] = pkEntry{}
	s.free = append(s.free, idx)
}

// SendFunc forwards a dispatched packet across a link: the packet leaves
// this router on a network output port at headerDepart and must appear at
// the neighbor with the given channel. creditHome is the credit pool to
// release when the packet later leaves the neighbor's buffer.
type SendFunc func(p *packet.Packet, targetCh vc.Channel, headerDepart sim.Ticks, creditHome *vc.Credits)

// DeliverFunc consumes a packet at a local output port; at is the time the
// last flit reaches the sink.
type DeliverFunc func(p *packet.Packet, at sim.Ticks)

// outputPort is one of the seven output ports. A network port's credit
// pool (free buffer space at the downstream router's input port) lives
// in Router.credits.
type outputPort struct {
	// busyUntil is when the port finishes transmitting its current packet;
	// re-arbitration is possible once all flits are delivered (§2.1).
	busyUntil sim.Ticks
	send      SendFunc    // network ports
	deliver   DeliverFunc // local ports
}

// freeForGrant reports whether the port will have finished its current
// transmission by the time a grant issued at gaTick puts the first flit on
// the wire.
func (o *outputPort) freeForGrant(gaTick sim.Ticks, postArb sim.Ticks) bool {
	return o.busyUntil <= gaTick+postArb
}
