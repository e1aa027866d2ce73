package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runnerOpts returns small-scale figure options.
func runnerOpts() Options {
	return Options{Quick: true, CyclesOverride: 1500, MaxRatePoints: 2, Seed: 3}
}

// runFigure runs one single-spec canned figure through a Runner with the
// given worker count, zeroing the wall-clock field so Results compare.
func runFigure(t *testing.T, name string, o Options, workers int) *Result {
	t.Helper()
	specs, err := FigureSpecs(name, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(WithWorkers(workers)).Run(context.Background(), specs[0])
	if err != nil {
		t.Fatalf("figure %s: %v", name, err)
	}
	res.ElapsedNS = 0
	return res
}

// TestParallelSerialIdentical is the runner's core guarantee: a canned
// figure fanned across eight workers produces byte-identical results to
// the same figure run serially — a timing panel (10s) and both
// standalone sweeps (8, 9). Run with -race, this also exercises the pool
// for data races.
func TestParallelSerialIdentical(t *testing.T) {
	for _, name := range []string{"10s", "8", "9"} {
		serial := runFigure(t, name, runnerOpts(), 1)
		parallel := runFigure(t, name, runnerOpts(), 8)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("figure %s diverged between serial and 8-worker runs:\n%+v\n%+v", name, serial, parallel)
		}
		if s, p := serial.Table().CSV(), parallel.Table().CSV(); s != p {
			t.Errorf("figure %s CSV not byte-identical:\n%s\n%s", name, s, p)
		}
	}
}

// TestRunnerDefaultWorkersMatchesSerial pins a Runner's default fan-out
// (one worker per CPU) to an explicitly serial run of the same sweep.
func TestRunnerDefaultWorkersMatchesSerial(t *testing.T) {
	sp := NewSpec(
		WithTopology(4, 4), WithArbiters("SPAA-base"), WithPatterns("random"),
		WithRates(0.01, 0.03, 0.05), WithCycles(2000), WithSeed(5),
	)
	def, err := NewRunner().Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewRunner(WithWorkers(1)).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	def.ElapsedNS, serial.ElapsedNS = 0, 0
	if !reflect.DeepEqual(def, serial) {
		t.Errorf("default-worker and serial runs diverged:\n%+v\n%+v", def, serial)
	}
}

func TestWorkerCount(t *testing.T) {
	if got := workerCount(0); got < 1 {
		t.Errorf("default workerCount = %d, want >= 1", got)
	}
	if got := workerCount(1); got != 1 {
		t.Errorf("Workers 1 -> %d", got)
	}
	if got := workerCount(-3); got != 1 {
		t.Errorf("Workers -3 -> %d, want serial", got)
	}
	if got := workerCount(5); got != 5 {
		t.Errorf("Workers 5 -> %d", got)
	}
}

// TestRunJobsOrderAndError checks order-stable assembly and the serial
// error contract: the reported failure is the lowest-indexed failing job,
// and every result before it is valid.
func TestRunJobsOrderAndError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		jobs := make([]func() (int, error), 9)
		for i := range jobs {
			jobs[i] = func() (int, error) {
				if i == 5 || i == 7 {
					return 0, fmt.Errorf("job %d: %w", i, boom)
				}
				return i * i, nil
			}
		}
		results, firstBad, err := runJobs(context.Background(), workers, jobs)
		if firstBad != 5 {
			t.Errorf("workers=%d: firstBad = %d, want 5", workers, firstBad)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
		for i := 0; i < firstBad; i++ {
			if results[i] != i*i {
				t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, results[i], i*i)
			}
		}
	}
}

// TestRunJobsFailFast checks that jobs after an observed failure are
// never started.
func TestRunJobsFailFast(t *testing.T) {
	var executed atomic.Int32
	makeJobs := func(n, failAt int) []func() (int, error) {
		jobs := make([]func() (int, error), n)
		for i := range jobs {
			jobs[i] = func() (int, error) {
				executed.Add(1)
				if i == failAt {
					return 0, errors.New("fail")
				}
				time.Sleep(time.Millisecond)
				return i, nil
			}
		}
		return jobs
	}

	executed.Store(0)
	if _, firstBad, err := runJobs(context.Background(), 1, makeJobs(10, 2)); err == nil || firstBad != 2 {
		t.Fatalf("serial: firstBad = %d, err = %v", firstBad, err)
	}
	if got := executed.Load(); got != 3 {
		t.Errorf("serial executed %d jobs, want 3 (0..2)", got)
	}

	executed.Store(0)
	if _, firstBad, err := runJobs(context.Background(), 4, makeJobs(50, 0)); err == nil || firstBad != 0 {
		t.Fatalf("parallel: firstBad = %d, err = %v", firstBad, err)
	}
	// The dispatcher stops handing out work once the failure is observed.
	// Exactly how many in-flight jobs still run depends on scheduling, so
	// only assert the regression-revealing bound: not all of them.
	if got := executed.Load(); got == 50 {
		t.Error("parallel ran all 50 jobs despite job 0 failing immediately")
	}
}

// TestRunPanelErrorPreservesCompleteSeries checks the partial-result
// contract of a failing panel: the algorithm that finished before the
// failing one keeps its whole series, the failing algorithm's error is
// the run's error, and the Result keeps the panel's full shape.
func TestRunPanelErrorPreservesCompleteSeries(t *testing.T) {
	// MCM is rejected by the timing model, so the second series fails.
	sp := NewSpec(
		WithName("error panel"), WithTopology(4, 4),
		WithArbiters("SPAA-base", "MCM", "WFA-base"), WithPatterns("random"),
		WithRates(0.01, 0.02), WithCycles(500), WithSeed(1),
	)
	res, err := NewRunner(WithWorkers(4)).Run(context.Background(), sp)
	if err == nil {
		t.Fatal("the runner accepted a standalone-only algorithm in a timing panel")
	}
	if !strings.Contains(err.Error(), "MCM") {
		t.Errorf("error %q does not name the failing algorithm", err)
	}
	if !res.Partial || len(res.Series) != 3 {
		t.Fatalf("partial result: Partial=%v with %d series, want a partial 3-series panel", res.Partial, len(res.Series))
	}
	if got := len(res.Series[0].Points); got != 2 || res.Series[0].Label != "SPAA-base" {
		t.Errorf("complete series %q kept %d of 2 points", res.Series[0].Label, got)
	}
	for _, s := range res.Series[1:] {
		if len(s.Points) != 0 {
			t.Errorf("series %q past the failure kept %d points", s.Label, len(s.Points))
		}
	}
}

// stubDataset expands the claims dataset's plans with every job replaced
// by run, which receives the job's global index in dispatch order. It
// returns the plans and the total job count.
func stubDataset(t *testing.T, run func(i int) error) ([]*plan, int) {
	t.Helper()
	_, plans, err := datasetPlans(runnerOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pl := range plans {
		for j := range pl.jobs {
			i := n
			pl.jobs[j].run = func(context.Context) (ResultPoint, error) {
				return ResultPoint{Axis: float64(i)}, run(i)
			}
			n++
		}
	}
	return plans, n
}

// TestCollectDatasetHonorsWorkerBound: the claims dataset is one flat
// pool over every figure's jobs, so the worker count bounds concurrent
// simulations across all figures, the pool really runs that many at
// once, and one event stream counts every job of the dataset.
func TestCollectDatasetHonorsWorkerBound(t *testing.T) {
	var cur, peak atomic.Int32
	plans, total := stubDataset(t, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	var lastDone, events int
	r := NewRunner(WithWorkers(2), WithEventSink(func(e Event) {
		events++
		if e.Type == EventPointDone {
			lastDone = e.Done
		}
		if e.Total != total {
			t.Errorf("%s event total = %d, want %d", e.Type, e.Total, total)
		}
	}))
	results, err := r.runPlans(context.Background(), "dataset", plans, r.emitter())
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrent jobs = %d, want exactly the 2-worker bound", p)
	}
	if lastDone != total || events == 0 {
		t.Errorf("event stream counted %d of %d jobs", lastDone, total)
	}
	for i, res := range results {
		if res.Partial {
			t.Errorf("plan %d (%s) is partial after a clean run", i, res.Spec.Name)
		}
	}
}

// TestSharedAbortStopsSiblingSweeps: a job failing in one figure stops
// dispatch across every figure of the dataset — serially, no later job
// of any figure starts — and the failing job's own error is returned.
func TestSharedAbortStopsSiblingSweeps(t *testing.T) {
	rootCause := errors.New("root cause")
	for _, workers := range []int{1, 4} {
		var executed atomic.Int32
		failAt := -1
		plans, total := stubDataset(t, func(i int) error {
			executed.Add(1)
			if i == failAt {
				return rootCause
			}
			return nil
		})
		// Fail the first job of the third plan (Figure 10's first panel).
		failAt = len(plans[0].jobs) + len(plans[1].jobs)
		results, err := NewRunner(WithWorkers(workers)).runPlans(context.Background(), "dataset", plans, func(Event) {})
		if err != rootCause {
			t.Errorf("workers=%d: err = %v, want the failing job's own error", workers, err)
		}
		got := int(executed.Load())
		if workers == 1 && got != failAt+1 {
			t.Errorf("serial: %d jobs ran, want %d (none after the failure)", got, failAt+1)
		}
		if got >= total {
			t.Errorf("workers=%d: all %d jobs ran despite the failure", workers, total)
		}
		for i, res := range results {
			if complete := i < 2; res.Partial == complete {
				t.Errorf("workers=%d: plan %d (%s) Partial = %v", workers, i, res.Spec.Name, res.Partial)
			}
		}
	}
}

// TestAbortedSweepPrefersRealCause: when a job fails while an earlier job
// of another figure is still in flight, that earlier job still completes
// and the run reports the failing job's own error — nothing masks it.
func TestAbortedSweepPrefersRealCause(t *testing.T) {
	rootCause := errors.New("root cause")
	gate := make(chan struct{})
	var last9 int
	plans, _ := stubDataset(t, func(i int) error {
		switch i {
		case last9: // Figure 9's last job: in flight across the failure.
			<-gate
		case last9 + 1: // Figure 10's first job fails.
			defer close(gate)
			return rootCause
		}
		return nil
	})
	last9 = len(plans[0].jobs) + len(plans[1].jobs) - 1
	results, err := NewRunner(WithWorkers(2)).runPlans(context.Background(), "dataset", plans, func(Event) {})
	if err != rootCause {
		t.Errorf("err = %v, want the root cause", err)
	}
	if results[1].Partial || len(results[1].Series[0].Points) == 0 {
		t.Errorf("figure 9 lost its in-flight job: Partial=%v", results[1].Partial)
	}
	if !results[2].Partial {
		t.Error("figure 10's failing panel is not marked partial")
	}
}

// TestCollectDatasetParallelMatchesSerial runs the whole evaluation
// pipeline both ways at tiny scale and requires identical datasets.
func TestCollectDatasetParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset collection is expensive")
	}
	o := Options{Quick: true, CyclesOverride: 1000, MaxRatePoints: 2, Seed: 2}
	serial, err := CollectDataset(o, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CollectDataset(o, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("dataset diverged between serial and 8-worker collection")
	}
}
