package experiment

// scenario.go lifts typed scenario-matrix axes — algorithms × destination
// patterns × arrival processes × injection rates — into a declarative
// Spec; the cross product is ordinary Spec expansion, so a Runner fans it
// through the same job pool as the figure sweeps.

import (
	"alpha21364/internal/core"
	"alpha21364/internal/traffic"
)

// MatrixSpec lifts the typed matrix axes into a declarative Spec. The
// base setup supplies torus size, cycle count, seed, warmup, the
// outstanding cap, and the transaction model; its Kind, Pattern, and
// Rate are replaced by the axes.
func MatrixSpec(base TimingSetup, kinds []core.Kind,
	patterns []traffic.Pattern, processes []string, rates []float64) Spec {
	sp := specFromSetup("matrix", base, kinds, rates)
	names := make([]string, len(patterns))
	for i, p := range patterns {
		names[i] = p.String()
	}
	sp.Workload.Patterns = names
	sp.Workload.Processes = append([]string(nil), processes...)
	return sp
}

// specFromSetup lifts a TimingSetup into a Spec covering the given
// algorithms and rate sweep.
func specFromSetup(name string, s TimingSetup, kinds []core.Kind, rates []float64) Spec {
	sp := Spec{
		Version:  SpecVersion,
		Name:     name,
		Arbiters: kindNames(kinds),
		Check:    s.Check,
		Topology: &TopologySpec{Width: s.Width, Height: s.Height},
		Workload: &WorkloadSpec{MaxOutstanding: s.MaxOutstanding},
		Timing: &TimingSpec{
			Cycles:         s.Cycles,
			WarmupFraction: s.WarmupFraction,
			Seed:           s.Seed,
			ScalePipeline:  s.ScalePipeline,
			EpochCycles:    s.EpochCycles,
		},
	}
	if s.ReplayFrom != "" {
		sp.Workload.ReplayFrom = s.ReplayFrom
		return sp
	}
	sp.Workload.Patterns = []string{s.Pattern.String()}
	if s.Process != "" {
		sp.Workload.Processes = []string{s.Process}
	}
	sp.Workload.Model = s.Model
	sp.Workload.Rates = append([]float64(nil), rates...)
	sp.Workload.RecordTo = s.RecordTo
	return sp
}
