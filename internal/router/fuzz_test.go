package router

import (
	"testing"
	"testing/quick"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// arrivals drives seeded random traffic into a harness's router: events
// at random gaps, each a burst of packets to random destinations arriving
// on network input ports consistent with minimal routing, or injected at
// local ports.
type arrivals struct {
	h   *harness
	rng *sim.RNG
	// classes are drawn uniformly. anyChannel spreads network arrivals
	// over every channel the class can occupy, not just its adaptive one;
	// inject sends a quarter of the packets through the local ports.
	classes    []packet.Class
	anyChannel bool
	inject     bool
	burst      int // packets per event, drawn from [1, burst]
	gap        int // cycles between events, drawn from [0, gap)
	limit      int // network arrivals stop while the router buffers this many
	sent       int // packets accepted
}

var (
	netIns   = []ports.In{ports.InNorth, ports.InSouth, ports.InEast, ports.InWest}
	localIns = []ports.In{ports.InCache, ports.InMC0, ports.InMC1, ports.InIO}
)

// start schedules events traffic events from time zero.
func (a *arrivals) start(events int) { a.next(0, events) }

func (a *arrivals) next(at sim.Ticks, remaining int) {
	if remaining == 0 {
		return
	}
	a.h.eng.Schedule(at, func() {
		n := 1
		if a.burst > 1 {
			n += a.rng.Intn(a.burst)
		}
		for i := 0; i < n; i++ {
			a.one()
		}
		a.next(a.h.eng.Now()+sim.Ticks(a.rng.Intn(a.gap))*a.h.r.cfg.RouterPeriod, remaining-1)
	})
}

func (a *arrivals) one() {
	r, now := a.h.r, a.h.eng.Now()
	cl := a.classes[a.rng.Intn(len(a.classes))]
	dst := topology.Node(a.rng.Intn(r.torus.Nodes()))
	if a.inject && a.rng.Intn(4) == 0 {
		in := localIns[a.rng.Intn(len(localIns))]
		if r.Inject(packet.New(uint64(a.sent+1), cl, r.Node(), dst, now), in, now) {
			a.sent++
		}
		return
	}
	// A packet never arrives on the port it would have to exit through
	// (no 180-degree turns exist on minimal paths).
	dirs := r.torus.ProductiveDirs(r.Node(), dst)
	var legal []ports.In
	for _, in := range netIns {
		ok := true
		for _, d := range dirs {
			if ports.OutForDir(d) == ports.Out(in) {
				ok = false
			}
		}
		if ok {
			legal = append(legal, in)
		}
	}
	in := legal[a.rng.Intn(len(legal))]
	ch := vc.Of(cl, vc.Adaptive)
	if a.anyChannel {
		switch {
		case cl == packet.Special:
		case cl.IsIO():
			ch = vc.Of(cl, vc.VC0+vc.Sub(a.rng.Intn(2)))
		default:
			ch = vc.Of(cl, []vc.Sub{vc.Adaptive, vc.Adaptive, vc.VC0, vc.VC1}[a.rng.Intn(4)])
		}
	}
	p := packet.New(uint64(a.sent+1), cl, 4, dst, now)
	if r.Buffered() < a.limit && r.QueueLen(in, ch) < r.cfg.Buffers.Capacity(ch) {
		r.Arrive(p, in, ch, now, nil)
		a.sent++
	}
}

// TestRouterFuzzArrivals throws randomized arrival sequences at a single
// router across all three algorithm families and checks structural
// invariants: every arrived packet eventually leaves (no loss, no
// duplication), and nothing panics.
func TestRouterFuzzArrivals(t *testing.T) {
	kinds := []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFARotary}
	f := func(seed uint16, kindSel uint8) bool {
		kind := kinds[int(kindSel)%len(kinds)]
		h := newHarness(t, DefaultConfig(kind))
		a := &arrivals{
			h: h, rng: sim.NewRNG(uint64(seed) + 1),
			classes: []packet.Class{packet.Request, packet.Forward, packet.BlockResponse, packet.NonBlockResponse},
			gap:     40, limit: 100,
		}
		a.start(25)
		h.eng.Run(100000)
		got := len(h.departures) + len(h.deliveries)
		return got == a.sent && h.r.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
