package router

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
)

// TestRouterTickAllocs pins the router's steady-state allocation budget:
// once the packet slab and scratch slices have reached their high-water
// marks, injecting, arbitrating, and dispatching packets must not
// allocate. Two traffic shapes run per kind: self-addressed injections,
// whose whole life cycle (inject, nomination or wave, grant, local
// delivery) runs inside one router, and the saturated network rig
// (arrivals against upstream credits, dispatches reserving downstream
// credits on connected links), which drives the mask upkeep in Arrive,
// dispatch and the credit paths.
func TestRouterTickAllocs(t *testing.T) {
	for _, kind := range []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFARotary} {
		torus := topology.NewTorus(4, 4)
		cfg := DefaultConfig(kind)
		r, err := New(cfg, 5, torus)
		if err != nil {
			t.Fatal(err)
		}
		arena := packet.NewArena()
		for _, out := range []ports.Out{ports.OutMC0, ports.OutMC1, ports.OutIO} {
			r.ConnectLocal(out, func(p *packet.Packet, at sim.Ticks) {
				arena.Release(p)
			})
		}

		now := sim.Ticks(0)
		id := uint64(0)
		cycle := func() {
			id++
			p := arena.New(id, packet.Request, 5, 5, now)
			if !r.Inject(p, ports.InCache, now) {
				arena.Release(p)
			}
			for c := 0; c < 8; c++ {
				r.Tick(now)
				now += cfg.RouterPeriod
			}
		}
		// Warm slab, rings, and scratch past their high-water marks.
		for i := 0; i < 50; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%v: steady-state router Tick allocates %.2f/op, want 0", kind, allocs)
		}
		if allocs := testing.AllocsPerRun(200, newSatRig(t, kind).tick); allocs != 0 {
			t.Errorf("%v: saturated network Tick allocates %.2f/op, want 0", kind, allocs)
		}
	}
}
