// Command perfbench is the repository's benchmark. It runs one named
// workload of the Alpha 21364 simulator, assembled from the layers'
// public constructors as experiment.Runner assembles it, for a fixed
// host-time budget; checks every simulated point against the Runner's
// result for the same Spec and seed; and prints every metric by name
// with its unit, ending with one JSON summary line.
//
//	go run . --workload torus-saturated --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 also runs a traced
// phase (spans around each layer call, obs metrics, a CPU profile split
// by layer) and reports the per-layer metrics; spans and the profile are
// written under --out. End-to-end times are process CPU time scaled by
// host-speed samples taken around each point (see runPass), not by a
// committed calibration figure. Compare only runs made on the same host.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"alpha21364/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one invocation: a workload at a seed, and every pass run.
type session struct {
	w      *workloadDef
	seed   uint64
	expect []experiment.ResultPoint

	attempted, failed int
	failures          []string
}

// minPasses is the fewest measured passes a phase runs, whatever its
// budget, so every median has several samples.
const minPasses = 5

// comparisonPasses is the number of passes each comparison run of the
// traced phase takes a median over.
const comparisonPasses = 3

func (s *session) account(ps *pass) {
	s.attempted += ps.attempted
	s.failed += ps.failed
	s.failures = append(s.failures, ps.failures...)
}

// measure runs passes until budget has elapsed and at least least
// have run.
func (s *session) measure(budget time.Duration, least int, o passOpts) []*pass {
	var out []*pass
	start := time.Now()
	for len(out) < least || time.Since(start) < budget {
		ps := runPass(s.w, s.seed, o)
		s.account(ps)
		out = append(out, ps)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: standalone-fig8, torus-saturated or torus-sharded")
	seed := fs.Uint64("seed", defaultSeed, "simulation seed; the workload's inputs are a function of it")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 adds the traced phase and reports per-layer metrics")
	out := fs.String("out", ".bench_build/traces", "directory for trace spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Every measured pass runs on one P. The simulation is
	// single-threaded except for a sharded network's band workers, and
	// those interleave on the one P in a fixed order, so a pass's CPU
	// time does not depend on how the host schedules a second CPU.
	// Only the traced shard speed-up comparison uses every CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setupStart := time.Now()
	expect, source, err := expected(context.Background(), w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	s := &session{w: w, seed: *seed, expect: expect}
	// One unmeasured pass lets the heap and caches reach their working
	// size before timing; its outputs are checked like every other.
	s.account(runPass(w, *seed, passOpts{expect: expect}))
	prepared := time.Since(setupStart)

	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		budget /= 2
	}
	plain := s.measure(budget, minPasses, passOpts{expect: expect})
	metrics := endToEnd(plain)
	printed := metrics

	var traced *tracedResult
	if *trace == 1 {
		traced, err = s.tracedPhase(budget, plain, *out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		// The summary line carries the per-layer metrics; the untraced
		// end-to-end figures of this invocation are printed above it.
		metrics = traced.metrics
		printed = maps.Clone(metrics)
		maps.Copy(printed, endToEnd(plain))
	}

	prov := map[string]any{
		"workload":       w.name,
		"params":         w.params(),
		"seed":           *seed,
		"seconds":        *seconds,
		"trace":          *trace,
		"passes":         len(plain),
		"host_ref_ms":    median(plain, func(p *pass) float64 { return float64(p.ref) / 1e6 }),
		"ref_nominal_ms": float64(refNominal) / 1e6,
		"reference":      source,
		"prepare_s":      prepared.Seconds(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"normalisation":  "CPU times of each timing point (each standalone pass) scaled by ref_nominal_ms over the mean speed sample around it; compare runs on the same host only",
	}
	if traced != nil {
		prov["traced_passes"] = traced.passes
		prov["spans_file"] = traced.spansFile
		prov["profile_file"] = traced.profileFile
	}
	provJSON, _ := json.Marshal(prov) // map of plain values: cannot fail
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)
	for _, f := range s.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(stdout, "metric %-32s %.6g %s\n", "check_fail_ratio",
		ratio(float64(s.failed), float64(s.attempted)), "ratio")
	for _, n := range slices.Sorted(maps.Keys(printed)) {
		fmt.Fprintf(stdout, "metric %-32s %.6g %s\n", n, printed[n].Value, printed[n].Unit)
	}
	line, err := json.Marshal(summary{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd computes the user-visible metrics from untraced passes, each
// the median over passes. Times are process CPU time at the nominal host
// speed (see runPass).
func endToEnd(ps []*pass) map[string]metric {
	return map[string]metric{
		"cycles_per_s": {median(ps, func(p *pass) float64 { return float64(p.cycles) / p.simN }), "1/s"},
		"setup_s":      {median(ps, func(p *pass) float64 { return p.setupN }), "s"},
		"cpu_s":        {median(ps, func(p *pass) float64 { return p.totalN }), "s"},
		"live_heap_mb": {median(ps, func(p *pass) float64 { return float64(p.liveHeap) / 1e6 }), "MB"},
		"steady_allocs_per_cycle": {median(ps, func(p *pass) float64 {
			return float64(p.steadyAllocs) / float64(p.cycles)
		}), "allocs/cycle"},
	}
}

// median is the median over passes of f.
func median(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return quantile(v, 0.5)
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics. It sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// tracedResult is the traced phase's output.
type tracedResult struct {
	metrics                map[string]metric
	passes                 int
	spansFile, profileFile string
}

// tracedPhase runs the traced passes under a CPU profile, then the
// comparison runs the per-layer ratios need, and computes the per-layer
// metrics. plain are the same invocation's untraced passes.
func (s *session) tracedPhase(budget time.Duration, plain []*pass, out string) (*tracedResult, error) {
	w := s.w
	tr := newTracer()
	root := tr.open("workload "+w.name, 0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tp := s.measure(budget, minPasses, passOpts{tr: tr, parent: root, expect: s.expect})
	pprof.StopCPUProfile()
	tr.close(root)

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := attribute(samples)
	if err := validateSpans(tr.spans); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	base := fmt.Sprintf("%s-seed%d", w.name, s.seed)
	res := &tracedResult{
		passes:      len(tp),
		spansFile:   out + "/" + base + ".spans.json",
		profileFile: out + "/" + base + ".cpu.pprof",
	}
	if err := writeJSON(out, base+".spans.json", tr.spans); err != nil {
		return nil, err
	}
	if err := writeFile(out, base+".cpu.pprof", prof.Bytes()); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	simTime := func(ps []*pass) float64 { return median(ps, func(p *pass) float64 { return p.simN }) }
	// Traced passes are timed in wall time (pass.now), so the overhead
	// compares wall time on both sides.
	wallCPS := func(ps []*pass) float64 {
		return median(ps, func(p *pass) float64 { return float64(p.cycles) / p.simWall.Seconds() })
	}
	put("trace.overhead_ratio", wallCPS(tp)/wallCPS(plain), "ratio")
	// The host's own figures: its speed, and throughput in raw CPU time.
	put("host.ref_ms", median(plain, func(p *pass) float64 { return float64(p.ref) / 1e6 }), "ms")
	put("host.cycles_per_cpu_s", median(plain, func(p *pass) float64 { return float64(p.cycles) / p.sim.Seconds() }), "1/s")

	var slicesUS, arbP50, arbP99 []float64
	var routerCycles, arbCalls int64
	var arbTotal, standaloneWall time.Duration
	pendingMax, arenaMax := 0, 0
	for _, p := range tp {
		for _, d := range p.slices {
			slicesUS = append(slicesUS, float64(d.Nanoseconds())/1e3)
		}
		routerCycles += p.routerCycles
		pendingMax = max(pendingMax, p.pendingMax)
		arenaMax = max(arenaMax, p.arenaMax)
		if a := p.arb; a != nil {
			arbCalls += a.calls
			arbTotal += a.total
			standaloneWall += p.simWall
			ns := make([]float64, len(a.ns))
			for i, v := range a.ns {
				ns[i] = float64(v)
			}
			arbP50 = append(arbP50, quantile(ns, 0.5))
			arbP99 = append(arbP99, quantile(ns, 0.99))
		}
	}
	// A standalone slice is one RunArbiter call, i.e. one point.
	put("sim.slices", float64(len(slicesUS)), "count")
	put("sim.slice_us_p50", quantile(slicesUS, 0.5), "us")
	put("sim.slice_us_p95", quantile(slicesUS, 0.95), "us")

	for _, l := range layers {
		put(l+".self_share", shares.share(l), "ratio")
	}
	put("profile.samples", float64(shares.samples), "count")
	put("profile.in_run_share", shares.inRunShare(), "ratio")
	put("sim.shard_wait_share", ratio(float64(shares.shardWait), float64(shares.inRunNS)), "ratio")
	put("router.ns_per_router_cycle", ratio(float64(shares.byLayer["router"]), float64(routerCycles)), "ns")

	// The comparison runs: the same spec at rate 0 (router.idle_share)
	// and, for a sharded workload, on the monolithic engine
	// (sim.shard_speedup). Their outputs have no reference, but their
	// invariants are checked.
	idle, speedup := 0.0, 0.0
	if !w.standalone {
		idlePasses := s.measure(0, comparisonPasses, passOpts{idle: true})
		idle = simTime(idlePasses) / simTime(plain)
		if w.shards > 0 {
			// A parallel speed-up is a ratio of wall times, both sides
			// run with every CPU available.
			prev := runtime.GOMAXPROCS(runtime.NumCPU())
			mono := s.measure(0, comparisonPasses, passOpts{monolithic: true})
			sharded := s.measure(0, comparisonPasses, passOpts{expect: s.expect})
			runtime.GOMAXPROCS(prev)
			simWall := func(ps []*pass) float64 { return median(ps, func(p *pass) float64 { return p.simWall.Seconds() }) }
			speedup = simWall(mono) / simWall(sharded)
		}
	}
	put("router.idle_share", idle, "ratio")
	put("sim.shard_speedup", speedup, "ratio")

	last := tp[len(tp)-1]
	c := last.counters
	put("router.nominations", float64(c.Nominations), "count")
	put("router.grants", float64(c.Grants), "count")
	put("router.grant_ratio", ratio(float64(c.Grants), float64(c.Nominations)), "ratio")
	put("router.collisions", float64(c.Collisions), "count")
	put("router.wasted_spec_reads", float64(c.WastedSpecReads), "count")
	put("router.drain_entries", float64(c.DrainEntries), "count")
	var stalls, creditWaits int64
	var occupancy, linkUtil float64
	for _, snap := range last.snaps {
		var occ float64
		for _, r := range snap.Routers {
			stalls += r.Stalls
			creditWaits += r.CreditWaits
			occ += r.MeanOccupancy
		}
		occupancy += ratio(occ, float64(len(snap.Routers)))
		linkUtil += snap.Network.LinkUtilization
	}
	nsnap := float64(len(last.snaps))
	put("router.stalls", float64(stalls), "count")
	put("router.credit_waits", float64(creditWaits), "count")
	put("router.occupancy_mean", ratio(occupancy, nsnap), "packets")
	put("network.link_util", ratio(linkUtil, nsnap), "ratio")

	put("core.arbitrate_calls", ratio(float64(arbCalls), float64(len(tp))), "count")
	// Per-call percentiles are taken within each pass (16000 calls, so
	// the p99 has 160 above it) and reported as the median over passes.
	put("core.arbitrate_ns_p50", quantile(arbP50, 0.5), "ns")
	put("core.arbitrate_ns_p99", quantile(arbP99, 0.5), "ns")
	put("core.arbitrate_share", ratio(float64(arbTotal), float64(standaloneWall)), "ratio")

	put("network.build_s", median(tp, func(p *pass) float64 { return p.netBuild.Seconds() }), "s")
	put("workload.build_s", median(tp, func(p *pass) float64 { return p.wlBuild.Seconds() }), "s")
	put("setup.allocs", median(tp, func(p *pass) float64 { return float64(p.setupAllocs) }), "count")
	put("setup.bytes", median(tp, func(p *pass) float64 { return float64(p.setupBytes) }), "bytes")
	put("stats.result_s", median(tp, func(p *pass) float64 { return p.extract.Seconds() }), "s")
	put("workload.pending_max", float64(pendingMax), "count")
	put("packet.arena_live_max", float64(arenaMax), "count")
	put("gc.count", median(tp, func(p *pass) float64 { return float64(p.gcCount) }), "count")
	put("gc.pause_s", median(tp, func(p *pass) float64 { return p.gcPause.Seconds() }), "s")

	var packets int64
	var thr, p50, p99, matches float64
	for _, r := range last.results {
		packets += r.Packets
		thr += r.Throughput
		p50 += r.LatencyP50NS
		p99 += r.LatencyP99NS
		matches += r.MatchesPerCycle
	}
	np := float64(len(last.results))
	put("model.packets", float64(packets), "count")
	put("model.throughput", thr/np, "flits/router/ns")
	put("model.latency_p50_ns", p50/np, "ns")
	put("model.latency_p99_ns", p99/np, "ns")
	put("core.matches_per_cycle", matches/np, "matches/cycle")
	res.metrics = m
	return res, nil
}
