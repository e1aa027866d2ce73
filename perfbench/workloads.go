package main

import (
	"fmt"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/traffic"
)

// defaultSeed is the experiment package's default seed; pins.json holds
// every workload's simulated statistics at this seed.
const defaultSeed = 1

// workloadDef is one benchmark workload: a fixed batch of simulation
// points, each run to a fixed simulated length. Points are laid out
// series-major (each kind over every value), the order experiment.Runner
// reports them in.
type workloadDef struct {
	name string
	// standalone selects the matching model; otherwise every point is a
	// timing-model torus run.
	standalone    bool
	width, height int
	// shards > 0 partitions the torus into that many row bands.
	shards int
	// cycles is the router cycles per timing point, or the arbitration
	// cycles per standalone point.
	cycles int
	// sliceCycles is the simulated span of one Engine.Run/ShardGroup.Run
	// call; the host time of each slice is one sample.
	sliceCycles int
	kinds       []core.Kind
	// values are injection rates (timing) or per-port loads (standalone).
	values []float64
	// setupBatch is how many times a standalone point's arbiter is
	// constructed per pass; one construction is below timer resolution.
	setupBatch int
}

// point is one simulation of a workload.
type point struct {
	kind  core.Kind
	value float64
}

func (p point) label() string { return fmt.Sprintf("%v@%g", p.kind, p.value) }

var allKinds = []core.Kind{
	core.KindMCM, core.KindPIM, core.KindPIM1, core.KindWFABase,
	core.KindWFARotary, core.KindSPAABase, core.KindSPAARotary, core.KindOPF,
}

var torusKinds = []core.Kind{core.KindSPAARotary, core.KindWFARotary, core.KindPIM1}

// The workloads. Why each exists is recorded in BENCHMARK.json and
// README.md; the short form: standalone-fig8 runs only standalone and
// core, torus-saturated is the contended router regime of Figures 10-11,
// and torus-sharded the only one that runs ShardGroup, PostBuffer and
// TickShard.
var workloads = []*workloadDef{
	{
		name:       "standalone-fig8",
		standalone: true,
		cycles:     1000,
		kinds:      allKinds,
		values:     []float64{1.0, 0.4},
		setupBatch: 64,
	},
	{
		name:        "torus-saturated",
		width:       8,
		height:      8,
		cycles:      2000,
		sliceCycles: 100,
		kinds:       torusKinds,
		values:      []float64{0.065},
	},
	{
		name:        "torus-sharded",
		width:       16,
		height:      16,
		shards:      2,
		cycles:      1000,
		sliceCycles: 20,
		kinds:       []core.Kind{core.KindSPAARotary},
		values:      []float64{0.065},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

func (w *workloadDef) points() []point {
	var ps []point
	for _, k := range w.kinds {
		for _, v := range w.values {
			ps = append(ps, point{kind: k, value: v})
		}
	}
	return ps
}

// slicesPerPoint is the number of timed slices one point runs in.
func (w *workloadDef) slicesPerPoint() int {
	if w.standalone {
		return 1
	}
	return (w.cycles + w.sliceCycles - 1) / w.sliceCycles
}

// spec is the experiment.Spec whose Runner result each pass of the
// workload must reproduce point for point.
func (w *workloadDef) spec(seed uint64) experiment.Spec {
	names := make([]string, len(w.kinds))
	for i, k := range w.kinds {
		names[i] = k.String()
	}
	if w.standalone {
		return experiment.NewSpec(
			experiment.WithName(w.name),
			experiment.WithArbiters(names...),
			experiment.WithStandaloneSweep(experiment.AxisLoad, w.values...),
			experiment.WithCycles(w.cycles),
			experiment.WithSeed(seed),
		)
	}
	opts := []experiment.SpecOption{
		experiment.WithName(w.name),
		experiment.WithTopology(w.width, w.height),
		experiment.WithArbiters(names...),
		experiment.WithPatterns(traffic.Uniform.String()),
		experiment.WithRates(w.values...),
		experiment.WithCycles(w.cycles),
		experiment.WithSeed(seed),
	}
	if w.shards > 0 {
		opts = append(opts, experiment.WithTorusShards(w.shards))
	}
	return experiment.NewSpec(opts...)
}

// params describes the workload for the provenance block.
func (w *workloadDef) params() map[string]any {
	kinds := make([]string, len(w.kinds))
	for i, k := range w.kinds {
		kinds[i] = k.String()
	}
	p := map[string]any{
		"kinds":  kinds,
		"cycles": w.cycles,
		"points": len(w.points()),
	}
	if w.standalone {
		p["model"] = "standalone"
		p["loads"] = w.values
		p["setup_batch"] = w.setupBatch
		return p
	}
	p["model"] = "timing"
	p["torus"] = fmt.Sprintf("%dx%d", w.width, w.height)
	p["rates"] = w.values
	p["traffic"] = "uniform, bernoulli arrivals, coherence model, 16 outstanding"
	p["slice_cycles"] = w.sliceCycles
	p["shards"] = w.shards
	return p
}
