package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite pins.json from experiment.Runner")

// shortened returns a copy of w whose points run a few hundred cycles.
func shortened(w *workloadDef) *workloadDef {
	c := *w
	if c.standalone {
		c.cycles = 200
	} else {
		c.cycles = 300
	}
	return &c
}

// TestPins re-derives every pin through experiment.Runner on the
// workload's Spec at the default seed. With -short only the workloads
// that take well under a second run.
func TestPins(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	derived := map[string][]experiment.ResultPoint{}
	for _, w := range workloads {
		if testing.Short() && !*update && w.name != "standalone-fig8" {
			continue
		}
		got, err := referencePoints(context.Background(), w, defaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		derived[w.name] = got
		if !*update && !reflect.DeepEqual(got, pins[w.name]) {
			t.Errorf("%s: pins.json differs from the Runner result; rerun with -update after a deliberate model change", w.name)
		}
	}
	if *update {
		data, err := json.MarshalIndent(derived, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAssemblyMatchesRunner runs each workload through the benchmark's
// own constructor assembly, sliced, and requires the Runner's Result for
// the same Spec point for point, at two seeds.
func TestAssemblyMatchesRunner(t *testing.T) {
	for _, w := range workloads {
		w := shortened(w)
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []uint64{defaultSeed, 7} {
				want, err := referencePoints(context.Background(), w, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				ps := runPass(w, seed, passOpts{expect: want})
				if ps.failed != 0 || ps.attempted != len(w.points()) {
					t.Fatalf("seed %d: %d of %d points failed: %v", seed, ps.failed, ps.attempted, ps.failures)
				}
				if ps.cycles != int64(w.cycles*len(w.points())) || ps.sim <= 0 || ps.setup <= 0 {
					t.Fatalf("seed %d: implausible pass %+v", seed, ps)
				}
			}
		})
	}
}

// TestFailuresAreCounted makes sure a wrong reference, a constructor
// error and a panic inside the simulation each count as failed points
// rather than passing silently or crashing the run.
func TestFailuresAreCounted(t *testing.T) {
	w := shortened(workloads[1])
	want, err := referencePoints(context.Background(), w, defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	want[0].Packets++
	ps := runPass(w, defaultSeed, passOpts{expect: want})
	if ps.failed != 1 || !strings.Contains(ps.failures[0], "differ") {
		t.Fatalf("mismatch: want exactly one failure, got %d: %v", ps.failed, ps.failures)
	}

	bad := shortened(workloads[1])
	bad.kinds = []core.Kind{core.KindMCM} // not implementable in the router
	if ps := runPass(bad, defaultSeed, passOpts{}); ps.failed != 1 || !strings.Contains(ps.failures[0], "build") {
		t.Fatalf("constructor error: got %d failures: %v", ps.failed, ps.failures)
	}

	panics := shortened(workloads[0])
	panics.cycles = 0 // standalone.RunArbiter panics on a non-positive length
	if ps := runPass(panics, defaultSeed, passOpts{}); ps.failed != ps.attempted || !strings.Contains(ps.failures[0], "panic") {
		t.Fatalf("panic: got %d of %d failed: %v", ps.failed, ps.attempted, ps.failures)
	}
}

// TestTracedPass checks the span tree of traced passes over each
// workload: every parent exists and encloses its children, self times are
// non-negative, and each run has its constructor, slice and result spans.
func TestTracedPass(t *testing.T) {
	for _, w := range workloads {
		w := shortened(w)
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			root := tr.open("workload", 0)
			ps := runPass(w, defaultSeed, passOpts{tr: tr, parent: root})
			tr.close(root)
			if ps.failed != 0 {
				t.Fatal(ps.failures)
			}
			if err := validateSpans(tr.spans); err != nil {
				t.Fatal(err)
			}
			children := map[string]int{}
			for _, s := range tr.spans {
				if s.Parent != 0 && strings.HasPrefix(tr.spans[s.Parent-1].Name, "run ") {
					children[s.Name]++
				}
			}
			n := len(w.points())
			want := map[string]int{"core.build": n, "standalone.run": n, "result": n}
			if !w.standalone {
				want = map[string]int{
					"sim.build": n, "stats.build": n, "network.build": n, "workload.build": n,
					"obs.wire": n, "slice": n * w.slicesPerPoint(), "stats.result": n,
					"obs.snapshot": n, "check": n,
				}
			}
			if !reflect.DeepEqual(children, want) {
				t.Fatalf("run children %v, want %v", children, want)
			}
			if w.standalone && ps.arb.calls != int64(w.cycles*n) {
				t.Fatalf("arbiter wrapper saw %d calls, want %d", ps.arb.calls, w.cycles*n)
			}
		})
	}
}

func TestValidateSpansRejectsBrokenTrees(t *testing.T) {
	for name, spans := range map[string][]span{
		"missing parent": {{ID: 1, Parent: 0, EndNS: 10}, {ID: 2, Parent: 5, EndNS: 5}},
		"outside parent": {{ID: 1, Parent: 0, EndNS: 10}, {ID: 2, Parent: 1, StartNS: 5, EndNS: 15}},
		"negative self":  {{ID: 1, Parent: 0, EndNS: 10}, {ID: 2, Parent: 1, EndNS: 8}, {ID: 3, Parent: 1, EndNS: 8}},
	} {
		if validateSpans(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestProfileShares profiles traced passes over a saturated run, as the
// traced phase does, and checks that the simulation covers at least 90%
// of the profiled CPU time and that the layer shares of that time add up
// to one.
func TestProfileShares(t *testing.T) {
	if testing.Short() {
		t.Skip("needs 1.5s of profiled simulation")
	}
	w := workloads[1]
	tr := newTracer()
	root := tr.open("workload", 0)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for time.Since(start) < 1500*time.Millisecond {
		runPass(w, defaultSeed, passOpts{tr: tr, parent: root})
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ps := attribute(samples)
	if ps.samples < 20 {
		t.Fatalf("only %d samples", ps.samples)
	}
	t.Logf("in-run share %.3f over %d samples", ps.inRunShare(), ps.samples)
	if got := ps.inRunShare(); got < 0.9 {
		t.Errorf("simulation covers %.3f of profiled CPU time, want >= 0.9", got)
	}
	var sum float64
	for _, l := range layers {
		sum += ps.share(l)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %.4f", sum)
	}
	if ps.share("router") < 0.3 {
		t.Errorf("router share %.3f on a saturated torus", ps.share("router"))
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"alpha21364/internal/router.(*Router).Tick":  "alpha21364/internal/router",
		"alpha21364/internal/core.(*SPAA).Arbitrate": "alpha21364/internal/core",
		"runtime.mallocgc":                           "runtime",
		"main.runPass":                               "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestRunReportsEveryMetric runs the command end to end in traced mode
// and checks the summary line's shape.
func TestRunReportsEveryMetric(t *testing.T) {
	var out, errOut bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"--workload", "standalone-fig8", "--seed", "3", "--seconds", "0.05", "--trace", "1", "--out", dir},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("summary %+v", sum)
	}
	for _, name := range []string{"core.arbitrate_calls", "standalone.self_share", "trace.overhead_ratio", "core.matches_per_cycle"} {
		if _, ok := sum.Metrics[name]; !ok {
			t.Errorf("traced summary lacks %s", name)
		}
	}
	if _, err := os.Stat(dir + "/standalone-fig8-seed3.spans.json"); err != nil {
		t.Error(err)
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
}
