package workload

import (
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/network"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
)

// TestGeneratorInjectionAllocs pins the steady-state allocation budget of
// the whole injection path — Generator.Tick (arrival draws, coherence
// transaction opens, packet minting from the arena, injection retries),
// router traversal, link flights, and delivery bookkeeping — by running a
// loaded 2x2 network and measuring allocations per simulated window after
// warmup. The budget is near zero: the only tolerated residue is Go map
// internals in the transaction table, well under one allocation per
// router cycle.
func TestGeneratorInjectionAllocs(t *testing.T) {
	eng := sim.NewEngine()
	col := stats.NewCollector(0)
	rcfg := router.DefaultConfig(core.KindSPAABase)
	rcfg.Seed = 1
	net, err := network.New(network.Config{Width: 2, Height: 2, Router: rcfg}, eng, col)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Config{
		Process:        NewBernoulli(0.05),
		MaxOutstanding: 16,
		Seed:           1,
	}, net, eng, col)
	eng.AddClock(rcfg.RouterPeriod, 0, gen)

	// Warm: arena, slabs, event free list, pending queues, txn pool.
	const window = 64 * 10 // 64 router cycles in ticks
	until := sim.Ticks(2000 * 10)
	eng.Run(until)

	allocs := testing.AllocsPerRun(100, func() {
		until += window
		eng.Run(until)
	})
	perCycle := allocs / 64
	if perCycle > 1 {
		t.Fatalf("steady-state injection allocates %.2f/router-cycle (%.1f per %d-cycle window), want <= 1",
			perCycle, allocs, 64)
	}
	if gen.Completed() == 0 {
		t.Fatal("no transactions completed; the workload never ran")
	}
}

// TestShardedInjectionAllocs is TestGeneratorInjectionAllocs over the
// spatially-sharded assembly: hub + per-band member engines, the
// wavefront edge, and the PostBuffer flush must hold the same near-zero
// steady-state budget (pooled event nodes, retained buffer capacity; the
// only tolerated residue is the transaction table's map internals).
func TestShardedInjectionAllocs(t *testing.T) {
	hub := sim.NewEngine()
	col := stats.NewCollector(0)
	rcfg := router.DefaultConfig(core.KindSPAABase)
	rcfg.Seed = 1
	const w, h, shards = 4, 4, 2
	part := topology.PartitionRows(topology.NewTorus(w, h), shards)
	members := make([]*sim.Engine, shards)
	for i := range members {
		members[i] = sim.NewEngine()
	}
	pb := sim.NewPostBuffer(w * h)
	net, err := network.NewSharded(network.Config{Width: w, Height: h, Router: rcfg}, hub, members, part, pb, col)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Config{
		Process:        NewBernoulli(0.05),
		MaxOutstanding: 16,
		Seed:           1,
	}, net, hub, col)
	hub.AddClock(rcfg.RouterPeriod, 0, gen)
	sg := sim.NewShardGroup(hub, members, pb, net.Lookahead())
	sg.SetEdge(rcfg.RouterPeriod, 0, net.TickShard)
	defer sg.Close()

	const window = 64 * 10
	until := sim.Ticks(2000 * 10)
	sg.Run(until)

	allocs := testing.AllocsPerRun(100, func() {
		until += window
		sg.Run(until)
	})
	perCycle := allocs / 64
	if perCycle > 1 {
		t.Fatalf("sharded steady state allocates %.2f/router-cycle (%.1f per %d-cycle window), want <= 1",
			perCycle, allocs, 64)
	}
	if gen.Completed() == 0 {
		t.Fatal("no transactions completed; the workload never ran")
	}
}

// TestCoherenceTxnGrowsByChunk pins the transaction pool's growth:
// opening n transactions at once costs one allocation per txnChunk, not
// one per transaction, and a finished transaction is reused first.
func TestCoherenceTxnGrowsByChunk(t *testing.T) {
	const n = 300
	c := NewCoherence()
	seen := make(map[*coherenceTxn]bool, n)
	allocs := testing.AllocsPerRun(5, func() {
		c.freeTxns, c.txnSpare = nil, nil
		clear(seen)
		for i := 0; i < n; i++ {
			txn := c.newTxn()
			if seen[txn] {
				t.Fatalf("transaction %d handed out twice", i)
			}
			seen[txn] = true
		}
	})
	if want := float64((n + txnChunk - 1) / txnChunk); allocs > want {
		t.Fatalf("opening %d transactions allocates %.0f times, want at most %.0f", n, allocs, want)
	}
	txn := c.newTxn()
	txn.twoHop = true
	c.freeTxns = append(c.freeTxns, txn)
	if got := c.newTxn(); got != txn || got.twoHop {
		t.Fatal("a finished transaction is not reused first, reset")
	}
}
