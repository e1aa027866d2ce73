package router

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// satRig holds one router at saturation with a fixed packet population:
// every packet it dispatches, to a link or a local port, re-enters the
// input buffer it left as a fresh arrival with a new destination one
// cycle later. Each network input has an upstream credit pool the arrival
// reserves and the dispatch releases; downstream credits return at once,
// so outputs block only while they transmit, and every tick arbitrates
// over the same number of buffered packets. Nothing in the cycle
// allocates once the router's slab and scratch have grown to the
// population.
type satRig struct {
	r      *Router
	cfg    Config
	rng    *sim.RNG
	now    sim.Ticks
	nDests int
	home   []ports.In               // home[id] is packet id's input port
	up     [ports.NumIn]*vc.Credits // upstream credit pool per input
	back   []*packet.Packet         // departed this tick, re-arriving next
}

// satClasses are the classes the rig's population cycles through.
var satClasses = []packet.Class{packet.Request, packet.Forward, packet.BlockResponse, packet.NonBlockResponse}

func newSatRig(tb testing.TB, kind core.Kind) *satRig {
	tb.Helper()
	s := &satRig{cfg: DefaultConfig(kind), rng: sim.NewRNG(7)}
	torus := topology.NewTorus(4, 4)
	r, err := New(s.cfg, 5, torus)
	if err != nil {
		tb.Fatal(err)
	}
	s.r = r
	s.nDests = torus.Nodes()
	for out := ports.Out(0); out < ports.NumOut; out++ {
		if out.IsNetwork() {
			r.ConnectNetwork(out, func(p *packet.Packet, ch vc.Channel, _ sim.Ticks, home *vc.Credits) {
				home.Release(ch)
				s.back = append(s.back, p)
			})
		} else {
			r.ConnectLocal(out, func(p *packet.Packet, _ sim.Ticks) {
				s.back = append(s.back, p)
			})
		}
	}
	// Six packets per (network input, class): 96 packets, every queue
	// inside the picker window and within its channel's capacity.
	s.home = make([]ports.In, 1, 1+6*len(netIns)*len(satClasses))
	s.back = make([]*packet.Packet, 0, cap(s.home))
	for _, in := range netIns {
		s.up[in] = vc.NewCredits(s.cfg.Buffers)
		for _, cl := range satClasses {
			for k := 0; k < 6; k++ {
				id := uint64(len(s.home))
				s.home = append(s.home, in)
				s.arrive(packet.New(id, cl, 4, 0, 0))
			}
		}
	}
	// Run past the start-up transient into the steady state.
	for i := 0; i < 2000; i++ {
		s.tick()
	}
	return s
}

// arrive re-buffers p at its home input with a fresh destination.
func (s *satRig) arrive(p *packet.Packet) {
	p.Dst = topology.Node(s.rng.Intn(s.nDests))
	in, ch := s.home[p.ID], vc.Of(p.Class, vc.Adaptive)
	s.up[in].Reserve(ch)
	s.r.Arrive(p, in, ch, s.now, s.up[in])
}

// tick advances the router one cycle and re-buffers what it dispatched.
func (s *satRig) tick() {
	s.r.Tick(s.now)
	s.now += s.cfg.RouterPeriod
	for _, p := range s.back {
		s.arrive(p)
	}
	s.back = s.back[:0]
}

func benchTick(b *testing.B, kinds ...core.Kind) {
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			s := newSatRig(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.tick()
			}
		})
	}
}

// BenchmarkSPAATick is the per-layer router cost of one SPAA cycle (GA
// resolution, then LA nomination over all eight inputs) on a saturated
// router.
func BenchmarkSPAATick(b *testing.B) {
	benchTick(b, core.KindSPAABase, core.KindSPAARotary)
}

// BenchmarkWaveTick is the per-layer router cost of one PIM1/WFA cycle on
// a saturated router; a wave builds and resolves every third cycle.
func BenchmarkWaveTick(b *testing.B) {
	benchTick(b, core.KindPIM1, core.KindWFABase, core.KindWFARotary)
}
