package experiment

// service.go is the execution half of the Scenario/Runner API: a Runner
// turns a Spec into a Result under a context, fanning the expanded job
// grid across a bounded worker pool and streaming typed events —
// run-start, point-done, series-done, run-done — as simulations finish.
// It is the one way to execute experiments: the canned figures, the
// claims dataset (CollectDataset), cmd/sweep, and sweepd all run their
// Specs through it.
//
// Determinism: jobs are fully fixed at expansion time and assembled by
// index, so a Result is byte-identical whatever the worker count (only
// ElapsedNS varies). Cancellation: the context is checked between jobs
// and polled inside each timing simulation every cancelPollCycles router
// cycles, so Run returns promptly with a partial, well-formed Result.

import (
	"context"
	"sync"
	"time"
)

// EventType discriminates Runner stream events.
type EventType string

const (
	// EventRunStart opens the stream; Total is the job count.
	EventRunStart EventType = "run-start"
	// EventPointDone reports one finished simulation with its measurement.
	EventPointDone EventType = "point-done"
	// EventSeriesDone reports that every point of one series finished.
	EventSeriesDone EventType = "series-done"
	// EventRunDone closes the stream, carrying the assembled Result and
	// the run's error, if any.
	EventRunDone EventType = "run-done"
)

// Event is one element of a Runner's progress stream. Done/Total count
// finished jobs out of the whole run. Events are delivered serialized
// (never concurrently) but in completion order, not job order.
type Event struct {
	Type  EventType `json:"type"`
	Done  int       `json:"done,omitempty"`
	Total int       `json:"total,omitempty"`
	// Label identifies the finished job (point-done) or the run (run-start).
	Label string `json:"label,omitempty"`
	// Series is the owning series' label (point-done, series-done).
	Series string `json:"series,omitempty"`
	// Point carries the measurement of a point-done event.
	Point *ResultPoint `json:"point,omitempty"`
	// Result carries the assembled result of a run-done event (nil when
	// one run covered several specs, as CollectDataset's does).
	Result *Result `json:"result,omitempty"`
	// Err is the run's failure, if any (run-done only).
	Err error `json:"-"`
}

// Runner executes Specs. The zero value is unusable; construct with
// NewRunner. A Runner is stateless between runs and safe for concurrent
// use by multiple goroutines.
type Runner struct {
	workers int
	sink    func(Event)
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// NewRunner returns a Runner with one worker per CPU.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// WithWorkers bounds how many simulations run concurrently: 0 means one
// per available CPU, 1 (or any negative value) runs serially. Results
// are byte-identical regardless of the worker count.
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) { r.workers = n }
}

// WithEventSink observes every event of every Run on this Runner. Calls
// are serialized; the sink must not block for long, as it is invoked
// from worker goroutines.
func WithEventSink(fn func(Event)) RunnerOption {
	return func(r *Runner) { r.sink = fn }
}

// Run executes the spec to completion (or cancellation) and returns the
// assembled Result. On failure or cancellation the Result is non-nil,
// marked Partial, and holds every point that finished before the
// contiguous-prefix cut; the error is the first job's own error, or the
// context's error when the run was cancelled.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	return r.run(ctx, spec, r.emitter())
}

// emitter returns the Runner's event sink, or a no-op when it has none.
func (r *Runner) emitter() func(Event) {
	if r.sink == nil {
		return func(Event) {}
	}
	return r.sink
}

// Stream executes the spec concurrently and returns its event channel.
// The stream ends with exactly one run-done event carrying the Result
// and error, after which the channel is closed. The caller must either
// drain the channel until it closes or cancel ctx before abandoning it:
// sends block once the buffer fills (backpressure on the workers), and
// only cancellation releases an abandoned stream (remaining events are
// then dropped and the channel closed).
func (r *Runner) Stream(ctx context.Context, spec Spec) <-chan Event {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan Event, 16)
	go func() {
		defer close(ch)
		emit := func(e Event) {
			if r.sink != nil {
				r.sink(e)
			}
			select {
			case ch <- e: // fast path: buffer has room or a reader waits
			default:
				select {
				case ch <- e:
				case <-ctx.Done():
					// The consumer cancelled and stopped draining; nobody
					// is entitled to further events, so dropping them frees
					// the workers to wind down instead of leaking.
				}
			}
		}
		res, err := r.run(ctx, spec, emit)
		if res != nil {
			return
		}
		// Expansion failed before the run started: run-done is still the
		// stream's closing event.
		emit(Event{Type: EventRunDone, Err: err})
	}()
	return ch
}

func (r *Runner) run(ctx context.Context, spec Spec, emit func(Event)) (*Result, error) {
	pl, err := spec.expand()
	if err != nil {
		return nil, err
	}
	results, err := r.runPlans(ctx, spec.title(), []*plan{pl}, emit)
	return results[0], err
}

// runPlans executes expanded specs as one run: all their jobs share a
// single pool, so the worker bound and fail-fast span every plan, and
// one event stream covers them (Done/Total count jobs across all plans).
// The run-done event carries the Result only when there is one plan.
// Each returned Result keeps the contiguous prefix of its own jobs that
// completed before the run's first failure.
func (r *Runner) runPlans(ctx context.Context, title string, plans []*plan, emit func(Event)) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	total := 0
	for _, pl := range plans {
		total += len(pl.jobs)
	}
	emit(Event{Type: EventRunStart, Total: total, Label: title})

	// One mutex serializes event emission and the done/remaining counters
	// across workers.
	var mu sync.Mutex
	done := 0
	jobs := make([]func() (ResultPoint, error), 0, total)
	for _, pl := range plans {
		remaining := make([]int, len(pl.series))
		for i, s := range pl.series {
			remaining[i] = s.jobs
		}
		for _, pj := range pl.jobs {
			series := pl.series[pj.series].meta.Label
			jobs = append(jobs, func() (ResultPoint, error) {
				pt, err := pj.run(ctx)
				if err != nil {
					return pt, err
				}
				mu.Lock()
				done++
				emit(Event{
					Type: EventPointDone, Done: done, Total: total,
					Label: pj.label, Series: series, Point: &pt,
				})
				remaining[pj.series]--
				if remaining[pj.series] == 0 {
					emit(Event{Type: EventSeriesDone, Done: done, Total: total, Series: series})
				}
				mu.Unlock()
				return pt, nil
			})
		}
	}

	points, firstBad, err := runJobs(ctx, r.workers, jobs)
	if cerr := ctx.Err(); cerr != nil {
		// The context's own error outranks the per-job symptom it caused.
		err = cerr
	}
	elapsed := time.Since(start).Nanoseconds()
	results := make([]*Result, len(plans))
	off := 0
	for i, pl := range plans {
		n := len(pl.jobs)
		results[i] = pl.assemble(points[off:off+n], min(max(firstBad-off, 0), n))
		results[i].ElapsedNS = elapsed
		off += n
	}
	var single *Result
	if len(results) == 1 {
		single = results[0]
	}
	mu.Lock()
	emit(Event{Type: EventRunDone, Done: done, Total: total, Result: single, Err: err})
	mu.Unlock()
	return results, err
}

// assemble builds the Result from the job-ordered points, keeping the
// contiguous prefix [0, firstBad) — exactly the jobs whose results are
// valid — and attributing each to its series. A point's replications are
// adjacent in job order, so the cut falls on whole points: a point whose
// replications only partially completed is dropped. Series whose jobs all
// fall past the cut are still present, empty, so a partial Result keeps
// the full shape of its spec.
func (pl *plan) assemble(points []ResultPoint, firstBad int) *Result {
	res := &Result{
		Version:        ResultVersion,
		Spec:           pl.spec,
		SaturationLoad: pl.saturationLoad,
		Partial:        firstBad < len(pl.jobs),
	}
	res.Series = make([]ResultSeries, len(pl.series))
	for i, s := range pl.series {
		res.Series[i] = s.meta
	}
	standaloneMode := pl.spec.Mode == ModeStandalone
	for i := 0; i+pl.reps <= firstBad; i += pl.reps {
		pj := pl.jobs[i]
		pt := points[i] // replication 0: the spec's own seed
		if pl.reps > 1 {
			pt.Replication = aggregateReplications(points[i:i+pl.reps], standaloneMode, pl.confidence)
		}
		s := &res.Series[pj.series]
		s.Points = append(s.Points, pt)
	}
	return res
}
