package sim

import "testing"

// TestEngineDispatchAllocs pins the zero-allocation contract of the
// steady-state dispatch loop: posting events against registered handlers
// and running them must not allocate once the node free list has warmed.
func TestEngineDispatchAllocs(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := e.RegisterHandler(func(args EventArgs) { fired++ })
	// Warm the free list past the test's in-flight high-water mark.
	for i := 0; i < 64; i++ {
		e.Post(Ticks(i), h, EventArgs{})
	}
	e.Run(64)

	at := e.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		at += 7
		e.Post(at, h, EventArgs{A: 1, B: 2})
		e.Run(at)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Post+dispatch allocates %.2f/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("handler never fired")
	}
}

// TestEngineSelfReschedulingAllocs covers the poll pattern (a handler
// that re-posts itself): the cancellation poll and protocol-step style
// events must stay allocation-free.
func TestEngineSelfReschedulingAllocs(t *testing.T) {
	e := NewEngine()
	var h HandlerID
	h = e.RegisterHandler(func(args EventArgs) {
		e.PostDelay(5, h, args)
	})
	e.Post(0, h, EventArgs{})
	e.Run(100) // warm

	at := e.Now()
	allocs := testing.AllocsPerRun(500, func() {
		at += 50
		e.Run(at)
	})
	if allocs != 0 {
		t.Fatalf("self-rescheduling dispatch allocates %.2f/op, want 0", allocs)
	}
}

// TestWheelAllocGrowsByChunk pins the node pool's growth: warming the
// wheel up to n in-flight events costs one allocation per nodeChunk
// nodes, not one per node.
func TestWheelAllocGrowsByChunk(t *testing.T) {
	const n = 300
	var w timerWheel
	seen := make(map[*eventNode]bool, n)
	allocs := testing.AllocsPerRun(5, func() {
		w = timerWheel{}
		clear(seen)
		for i := 0; i < n; i++ {
			nd := w.alloc()
			if seen[nd] {
				t.Fatalf("node %d handed out twice", i)
			}
			seen[nd] = true
		}
	})
	if want := float64((n + nodeChunk - 1) / nodeChunk); allocs > want {
		t.Fatalf("warming %d nodes allocates %.0f times, want at most %.0f", n, allocs, want)
	}
	nd := w.alloc()
	w.release(nd)
	if w.alloc() != nd {
		t.Fatal("a released node is not reused first")
	}
}
