package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/network"
	"alpha21364/internal/obs"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/stats"
	"alpha21364/internal/topology"
	"alpha21364/internal/traffic"
	"alpha21364/internal/workload"
)

// passOpts selects how one pass over a workload's points runs.
type passOpts struct {
	// tr, when set, makes the pass traced: it wires the obs metrics,
	// wraps standalone arbiters in the timing wrapper and records spans
	// under parent.
	tr     *tracer
	parent int
	// idle runs every timing point at injection rate 0 (router.idle_share).
	idle bool
	// monolithic runs a sharded workload on the single engine
	// (sim.shard_speedup).
	monolithic bool
	// expect, when set, is the Result every point must reproduce.
	expect []experiment.ResultPoint
}

// pass is what one pass over a workload's points measured. Durations
// are process CPU time (cpuNow) unless named wall, or the pass is traced.
type pass struct {
	traced bool
	// setupN, simN and totalN are setup, sim and total in seconds at the
	// nominal host speed (see runPass); ref is the mean speed sample.
	setupN, simN, totalN float64
	ref                  time.Duration

	setup, sim, extract, total time.Duration
	netBuild, wlBuild          time.Duration
	simWall                    time.Duration
	cycles, routerCycles       int64
	steadyAllocs               uint64
	setupAllocs, setupBytes    uint64
	// liveHeap is the largest live heap at the end of a point less
	// heapBase, the live heap before the pass: what the simulation
	// itself holds, apart from the benchmark's records of earlier passes.
	liveHeap, heapBase   uint64
	pendingMax, arenaMax int
	gcCount              uint32
	gcPause              time.Duration
	slices               []time.Duration
	// forcedGC and forcedPause are the collections probeHeap forced,
	// left out of gcCount and gcPause.
	forcedGC    uint32
	forcedPause time.Duration

	attempted, failed int
	failures          []string

	results  []experiment.ResultPoint
	counters router.Counters
	snaps    []*obs.Snapshot
	arb      *probeArbiter
}

// stamp is a reading of both clocks: wall time for spans, CPU time for
// the measured durations.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

var epoch = time.Now()

// now reads both clocks. The CPU profiler of a traced pass arms a
// process-wide CPU timer, and while one is armed Linux advances the
// process CPU clock only at scheduler ticks; a traced pass therefore
// measures its durations in wall time.
func (ps *pass) now() stamp {
	w := time.Now()
	if ps.traced {
		return stamp{w, w.Sub(epoch)}
	}
	return stamp{w, cpuNow()}
}

// liveHeapNow collects garbage and returns the live heap. Unlike the
// in-use heap between collections it does not depend on when the
// collector last ran.
func liveHeapNow() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// probeHeap collects garbage while a point's model is still reachable
// and folds the live heap into liveHeap. It returns the CPU time it
// took, which the caller leaves out of every measured duration. A traced
// pass skips it: live_heap_mb comes from the untraced passes, and the
// forced collections would crowd the traced pass's CPU profile.
func (ps *pass) probeHeap() time.Duration {
	if ps.traced {
		return 0
	}
	c0 := ps.now().cpu
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&after)
	ps.liveHeap = max(ps.liveHeap, after.HeapAlloc-min(after.HeapAlloc, ps.heapBase))
	ps.forcedGC += after.NumGC - before.NumGC
	ps.forcedPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return ps.now().cpu - c0
}

// memCounts returns exact cumulative heap allocation counts. ReadMemStats
// flushes the per-P caches, which runtime/metrics does not, so the
// counts are exact at every call; it is only called at point
// boundaries.
func memCounts() (allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// runPass runs every point of w once at the given seed, starting from a
// collected heap.
func runPass(w *workloadDef, seed uint64, o passOpts) *pass {
	pts := w.points()
	ps := &pass{traced: o.tr != nil, slices: make([]time.Duration, 0, len(pts)*w.slicesPerPoint())}
	if w.standalone {
		ps.arb = &probeArbiter{ps: ps, timed: o.tr != nil}
	}
	ps.heapBase = liveHeapNow()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Speed samples bracket every point of a timing workload, and the
	// whole pass of a standalone one, whose points take a few ms each.
	// Each bracketed group's CPU times are scaled by refNominal over the
	// mean of its two samples, so every group is measured against the
	// host speed of its own moment. A traced pass is timed in wall time
	// and takes no samples.
	every := 1
	if w.standalone {
		every = len(pts)
	}
	var before, refSum time.Duration
	var groups int
	var setup0, sim0, total0 time.Duration
	if !ps.traced {
		before = speedSample()
	}

	id := o.tr.open("pass", o.parent)
	for i, p := range pts {
		var want *experiment.ResultPoint
		if o.expect != nil {
			want = &o.expect[i]
		}
		run := runTimingPoint
		if w.standalone {
			run = runStandalonePoint
		}
		// A panic anywhere in a point (the model's own checks, the
		// invariant checks) is a failed output check, not a crash.
		if err := catch(func() { run(w, p, seed, o, ps, id, want) }); err != nil {
			ps.fail(p, "%v", err)
		}
		if !ps.traced && ((i+1)%every == 0 || i == len(pts)-1) {
			after := speedSample()
			ref := (before + after) / 2
			scale := float64(refNominal) / float64(ref)
			ps.setupN += (ps.setup - setup0).Seconds() * scale
			ps.simN += (ps.sim - sim0).Seconds() * scale
			ps.totalN += (ps.total - total0).Seconds() * scale
			setup0, sim0, total0 = ps.setup, ps.sim, ps.total
			refSum += ref
			groups++
			before = after
		}
	}
	if groups > 0 {
		ps.ref = refSum / time.Duration(groups)
	}
	o.tr.close(id)
	runtime.ReadMemStats(&ms1)
	ps.gcCount = ms1.NumGC - ms0.NumGC - ps.forcedGC
	ps.gcPause = time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs) - ps.forcedPause
	return ps
}

// fail records a failed output check.
func (ps *pass) fail(p point, format string, args ...any) {
	ps.failed++
	ps.failures = append(ps.failures, p.label()+": "+fmt.Sprintf(format, args...))
}

// compare checks a point's simulated statistics against the reference.
func (ps *pass) compare(p point, got experiment.ResultPoint, want *experiment.ResultPoint) {
	if want != nil && !reflect.DeepEqual(got, *want) {
		ps.fail(p, "simulated statistics differ from the reference:\n got  %+v\n want %+v", got, *want)
	}
}

// timingRun is one timing-model point assembled from the layers' public
// constructors, in the order experiment's runTiming uses.
type timingRun struct {
	eng    *sim.Engine
	sg     *sim.ShardGroup
	col    *stats.Collector
	net    *network.Network
	gen    *workload.Generator
	met    *obs.SimMetrics
	period sim.Ticks
	end    sim.Ticks
}

// buildTiming constructs one point. lap is called after each layer's
// constructor with that layer's name.
func buildTiming(w *workloadDef, kind core.Kind, rate float64, seed uint64, shards int, lap func(string)) (*timingRun, error) {
	rcfg := router.DefaultConfig(kind)
	rcfg.Seed = seed
	t := &timingRun{period: rcfg.RouterPeriod, end: sim.Ticks(w.cycles) * rcfg.RouterPeriod}
	warmup := sim.Ticks(float64(t.end) * 0.2) // experiment's default warmup fraction

	t.eng = sim.NewEngine()
	lap("sim.build")
	t.col = stats.NewCollector(warmup)
	lap("stats.build")
	ncfg := network.Config{Width: w.width, Height: w.height, Router: rcfg}
	var err error
	// For a sharded network, network.build also covers the partition,
	// the member engines and the ShardGroup that drives them.
	if shards > 0 {
		part := topology.PartitionRows(topology.NewTorus(w.width, w.height), shards)
		members := make([]*sim.Engine, part.Shards())
		for i := range members {
			members[i] = sim.NewEngine()
		}
		pb := sim.NewPostBuffer(w.width * w.height)
		t.net, err = network.NewSharded(ncfg, t.eng, members, part, pb, t.col)
		if err != nil {
			return nil, err
		}
		t.sg = sim.NewShardGroup(t.eng, members, pb, t.net.Lookahead())
		t.sg.SetEdge(rcfg.RouterPeriod, 0, t.net.TickShard)
	} else {
		t.net, err = network.New(ncfg, t.eng, t.col)
		if err != nil {
			return nil, err
		}
	}
	lap("network.build")
	torus := t.net.Torus()
	if err := traffic.Uniform.Validate(torus); err != nil {
		return nil, err
	}
	tcfg := traffic.DefaultConfig(traffic.Uniform, rate)
	tcfg.Seed = seed
	wcfg := tcfg.Workload(torus)
	if wcfg.Process, err = workload.NewProcess("bernoulli", rate); err != nil {
		return nil, err
	}
	t.gen = workload.New(wcfg, t.net, t.eng, t.col)
	t.eng.AddClock(rcfg.RouterPeriod, 0, t.gen)
	lap("workload.build")
	return t, nil
}

// wireMetrics installs the observation-only obs metrics as runTiming
// does for Spec.Metrics.
func (t *timingRun) wireMetrics() {
	t.met = obs.NewSimMetrics(t.net.Nodes(), t.net.NumLinks())
	for node := 0; node < t.net.Nodes(); node++ {
		r := t.net.Router(topology.Node(node))
		r.SetMetrics(&t.met.Routers[node])
		r.SetFlight(&t.met.Flight[node])
	}
	t.net.SetMetrics(&t.met.Network)
}

// checkConservation verifies the network's own invariants and that the
// packet arena holds exactly the packets still somewhere in the system.
// It panics on violation, like Network.CheckInvariants; runPass records
// the panic as a failed point.
func (t *timingRun) checkConservation() {
	t.net.CheckInvariants()
	c := t.net.TotalCounters()
	accounted := int64(t.net.Buffered()) + t.net.LinkFlight() +
		int64(t.gen.PendingInjections()) + (c.DeliveredLocal - t.gen.Sunk())
	if live := int64(t.gen.ArenaLive()); live != accounted {
		panic(fmt.Sprintf("arena holds %d live packets, %d accounted for", live, accounted))
	}
}

func runTimingPoint(w *workloadDef, p point, seed uint64, o passOpts, ps *pass, parent int, want *experiment.ResultPoint) {
	ps.attempted++
	rate, shards := p.value, w.shards
	if o.idle {
		rate = 0
	}
	if o.monolithic {
		shards = 0
	}
	tr := o.tr
	runID := tr.open("run "+p.label(), parent)
	defer tr.close(runID)

	allocs0, bytes0 := memCounts()
	start := ps.now()
	last := start
	lap := func(name string) {
		t := ps.now()
		tr.add(name, runID, last.wall, t.wall)
		switch name {
		case "network.build":
			ps.netBuild += t.cpu - last.cpu
		case "workload.build":
			ps.wlBuild += t.cpu - last.cpu
		}
		last = t
	}
	t, err := buildTiming(w, p.kind, rate, seed, shards, lap)
	ps.setup += ps.now().cpu - start.cpu
	allocs1, bytes1 := memCounts()
	ps.setupAllocs += allocs1 - allocs0
	ps.setupBytes += bytes1 - bytes0
	if err != nil {
		ps.fail(p, "build: %v", err)
		return
	}
	if tr != nil {
		t0 := time.Now()
		t.wireMetrics()
		tr.add("obs.wire", runID, t0, time.Now())
	}

	run := t.eng.Run
	if t.sg != nil {
		run = t.sg.Run
		defer t.sg.Close()
	}
	allocsSim0, _ := memCounts()
	for c := 0; c < w.cycles; {
		next := min(c+w.sliceCycles, w.cycles)
		until := sim.Ticks(next) * t.period
		if next < w.cycles {
			// Run(until) executes tick until in full and leaves the
			// engine there; ending a slice one tick before a clock edge
			// keeps every edge inside exactly one slice, so the sliced
			// run is the same simulation as one Run(end).
			until--
		}
		t0 := ps.now()
		run(until)
		t1 := ps.now()
		d := t1.cpu - t0.cpu
		ps.sim += d
		ps.simWall += t1.wall.Sub(t0.wall)
		ps.slices = append(ps.slices, d)
		tr.add("slice", runID, t0.wall, t1.wall)
		ps.pendingMax = max(ps.pendingMax, t.gen.PendingInjections())
		ps.arenaMax = max(ps.arenaMax, t.gen.ArenaLive())
		c = next
	}
	allocsSim1, _ := memCounts()
	ps.steadyAllocs += allocsSim1 - allocsSim0
	ps.cycles += int64(w.cycles)
	ps.routerCycles += int64(w.cycles) * int64(t.net.Nodes())
	probe := ps.probeHeap()

	t0 := ps.now()
	bnf := t.col.BNF(t.net.Nodes(), t.end)
	counters := t.net.TotalCounters()
	lat := t.col.LatencySummaryNS()
	got := experiment.ResultPoint{
		Rate:         rate,
		Throughput:   bnf.Throughput,
		AvgLatencyNS: bnf.AvgLatencyNS,
		LatencyP50NS: lat.P50NS,
		LatencyP95NS: lat.P95NS,
		LatencyP99NS: lat.P99NS,
		Packets:      bnf.Packets,
		Completed:    t.gen.Completed(),
		DrainEntries: counters.DrainEntries,
		Collisions:   counters.Collisions,
		MeanHops:     t.col.MeanHops(),
	}
	t1 := ps.now()
	tr.add("stats.result", runID, t0.wall, t1.wall)
	ps.extract += t1.cpu - t0.cpu
	ps.total += t1.cpu - start.cpu - probe
	if t.met != nil {
		t.met.Flush(t.end)
		ps.snaps = append(ps.snaps, t.met.Snapshot(p.kind.String(), t.end))
		tr.add("obs.snapshot", runID, t1.wall, time.Now())
	}
	addCounters(&ps.counters, counters)
	ps.results = append(ps.results, got)

	c0 := time.Now()
	t.checkConservation()
	ps.compare(p, got, want)
	tr.add("check", runID, c0, time.Now())
}

func addCounters(dst *router.Counters, c router.Counters) {
	dst.Injected += c.Injected
	dst.Arrived += c.Arrived
	dst.Nominations += c.Nominations
	dst.Grants += c.Grants
	dst.Collisions += c.Collisions
	dst.WastedSpecReads += c.WastedSpecReads
	dst.DrainEntries += c.DrainEntries
	dst.DeliveredLocal += c.DeliveredLocal
}

// catch runs f and returns its panic, if any, as an error.
func catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

// standaloneConfig mirrors experiment's standalone expansion for an
// absolute-load axis at replication 0.
func standaloneConfig(w *workloadDef, load float64, seed uint64) standalone.Config {
	cfg := standalone.DefaultConfig(load)
	cfg.Cycles = w.cycles
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// newStandaloneArbiter builds the arbiter standalone.Run would build.
func newStandaloneArbiter(kind core.Kind, cfg standalone.Config) core.Arbiter {
	return core.New(kind, sim.NewRNG(cfg.Seed^0x9747b28c))
}

func runStandalonePoint(w *workloadDef, p point, seed uint64, o passOpts, ps *pass, parent int, want *experiment.ResultPoint) {
	ps.attempted++
	tr := o.tr
	runID := tr.open("run "+p.label(), parent)
	defer tr.close(runID)

	start := ps.now()
	cfg := standaloneConfig(w, p.value, seed)
	// One construction is a few allocations and well below timer
	// resolution, so setup times a batch and charges its mean.
	var arb core.Arbiter
	for i := 0; i < w.setupBatch; i++ {
		arb = newStandaloneArbiter(p.kind, cfg)
	}
	setupEnd := ps.now()
	setup := (setupEnd.cpu - start.cpu) / time.Duration(w.setupBatch)
	ps.setup += setup
	tr.add("core.build", runID, start.wall, setupEnd.wall)
	a := ps.arb
	a.inner, a.left, a.probe, a.probeWall = arb, cfg.Cycles, 0, 0

	allocs0, _ := memCounts()
	t0 := ps.now()
	res := standalone.RunArbiter(a, cfg)
	t1 := ps.now()
	allocs1, _ := memCounts()
	tr.add("standalone.run", runID, t0.wall, t1.wall)
	d := t1.cpu - t0.cpu - a.probe
	ps.sim += d
	ps.simWall += t1.wall.Sub(t0.wall) - a.probeWall
	ps.slices = append(ps.slices, d)
	ps.steadyAllocs += allocs1 - allocs0
	ps.cycles += int64(w.cycles)

	t2 := ps.now()
	got := experiment.ResultPoint{
		Axis:            p.value,
		MatchesPerCycle: res.MatchesPerCycle,
		OfferedPerCycle: res.OfferedPerCycle,
		DroppedPerCycle: res.DroppedPerCycle,
		MeanQueueLen:    res.MeanQueueLen,
	}
	t3 := ps.now()
	tr.add("result", runID, t2.wall, t3.wall)
	ps.extract += t3.cpu - t2.cpu
	ps.total += setup + t3.cpu - t0.cpu - a.probe
	ps.results = append(ps.results, got)
	ps.compare(p, got, want)
}

// probeArbiter wraps the arbiter standalone.RunArbiter drives. At a
// point's last cycle it runs probeHeap, while the model's matrix and
// queues are still reachable, and keeps the CPU time that took in probe.
// Timed (traced passes only), it also times every Arbitrate call in wall
// time.
type probeArbiter struct {
	inner core.Arbiter
	ps    *pass
	// left is the point's calls still to come; probe and probeWall are
	// the CPU and wall time probeHeap took during the point.
	left             int
	probe, probeWall time.Duration

	timed bool
	calls int64
	total time.Duration
	ns    []uint32
}

func (a *probeArbiter) Name() string { return a.inner.Name() }

func (a *probeArbiter) Arbitrate(m *core.Matrix) []core.Grant {
	a.calls++
	if a.left--; a.left == 0 {
		w0 := time.Now()
		a.probe += a.ps.probeHeap()
		a.probeWall += time.Since(w0)
	}
	if !a.timed {
		return a.inner.Arbitrate(m)
	}
	t0 := time.Now()
	g := a.inner.Arbitrate(m)
	d := time.Since(t0)
	a.total += d
	a.ns = append(a.ns, uint32(min(d.Nanoseconds(), 1<<32-1)))
	return g
}
