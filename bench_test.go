package alpha21364

import (
	"fmt"
	"sync"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/experiment"
	"alpha21364/internal/router"
	"alpha21364/internal/sim"
	"alpha21364/internal/standalone"
	"alpha21364/internal/traffic"
)

// ablationCycles keeps the ablation tables short enough for
// `go test -bench=Ablation` while preserving their qualitative shape.
// The paper's figures themselves are regenerated by `go run ./cmd/sweep`,
// and simulator speed is measured by perfbench, `make bench-arbiters`
// and `make bench-router`.
const ablationCycles = 4000

// printOnce emits each ablation's table a single time per test binary
// run, so the benchmark harness reproduces the paper's rows without
// spamming every b.N iteration.
var printed sync.Map

func printOnce(key string, render func() string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(render())
	}
}

// BenchmarkAblationPipelineDepth measures the paper's footnote 1: each
// cycle added to the arbitration pipeline costs roughly 5% of throughput
// under heavy load. It sweeps SPAA with 3..6 arbitration cycles.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		var baseTput float64
		for extra := 0; extra <= 3; extra++ {
			res := runCustomRouter(b, func(cfg *router.Config) {
				cfg.ArbCycles += extra
			}, 0.05)
			if extra == 0 {
				baseTput = res.Throughput
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", 3+extra),
				fmt.Sprintf("%.4f", res.Throughput),
				fmt.Sprintf("%.1f%%", 100*(1-res.Throughput/baseTput)),
				fmt.Sprintf("%.1f", res.AvgLatencyNS),
			})
		}
		printOnce("ablation-depth", func() string {
			return experiment.Table{
				Title:   "Ablation: SPAA arbitration pipeline depth (8x8 random, heavy load)",
				Columns: []string{"arb cycles", "tput", "loss vs 3", "lat(ns)"},
				Rows:    rows,
			}.Format()
		})
	}
}

// BenchmarkAblationInitiationInterval isolates pipelining (§5.2's closing
// experiment): a hypothetical 3-cycle WFA that still restarts only every 3
// cycles, against SPAA's every-cycle restart.
func BenchmarkAblationInitiationInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spaa := runCustomRouter(b, nil, 0.05)
		wfa3 := runCustomRouterKind(b, core.KindWFABase, func(cfg *router.Config) {
			cfg.ArbCycles = 3 // same latency as SPAA; II stays 3
		}, 0.05)
		printOnce("ablation-ii", func() string {
			return experiment.Table{
				Title:   "Ablation: initiation interval (8x8 random; hypothetical 3-cycle WFA vs SPAA)",
				Columns: []string{"algorithm", "II", "tput", "lat(ns)"},
				Rows: [][]string{
					{"SPAA-base", "1", fmt.Sprintf("%.4f", spaa.Throughput), fmt.Sprintf("%.1f", spaa.AvgLatencyNS)},
					{"WFA-base (3-cycle)", "3", fmt.Sprintf("%.4f", wfa3.Throughput), fmt.Sprintf("%.1f", wfa3.AvgLatencyNS)},
				},
			}.Format()
		})
	}
}

// BenchmarkAblationRotary compares base and rotary variants beyond
// saturation (the §5.2 throughput-retention claim).
func BenchmarkAblationRotary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		for _, k := range []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindWFABase, core.KindWFARotary} {
			res, err := experiment.RunTiming(experiment.TimingSetup{
				Width: 8, Height: 8, Kind: k, Pattern: traffic.Uniform,
				Rate: 0.09, MaxOutstanding: 64, Cycles: ablationCycles, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.4f", res.Throughput),
				fmt.Sprintf("%.1f", res.AvgLatencyNS),
				fmt.Sprintf("%d", res.DrainEntries)})
		}
		printOnce("ablation-rotary", func() string {
			return experiment.Table{
				Title:   "Ablation: Rotary Rule beyond saturation (8x8 random, 64 outstanding)",
				Columns: []string{"algorithm", "tput", "lat(ns)", "drains"},
				Rows:    rows,
			}.Format()
		})
	}
}

// BenchmarkAblationGrantPolicy explores §3's output-arbiter design space:
// SPAA with least-recently-selected (shipping), round-robin, random, and a
// fixed priority chain.
func BenchmarkAblationGrantPolicy(b *testing.B) {
	policies := []struct {
		name    string
		factory func(rows, cols int) core.SelectPolicy
	}{
		{"lrs (21364)", nil},
		{"round-robin", func(r, c int) core.SelectPolicy { return core.NewRoundRobinPolicy(r, c) }},
		{"random", func(r, c int) core.SelectPolicy { return core.NewRandomPolicy(sim.NewRNG(7)) }},
		{"priority-chain", func(r, c int) core.SelectPolicy { return core.NewPriorityChainPolicy() }},
	}
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, len(policies))
		for _, pol := range policies {
			pol := pol
			res := runCustomRouter(b, func(cfg *router.Config) {
				if pol.factory != nil {
					cfg.GrantPolicyFactory = pol.factory
				}
			}, 0.05)
			rows = append(rows, []string{pol.name,
				fmt.Sprintf("%.4f", res.Throughput),
				fmt.Sprintf("%.1f", res.AvgLatencyNS)})
		}
		printOnce("ablation-policy", func() string {
			return experiment.Table{
				Title:   "Ablation: SPAA output-arbiter grant policy (8x8 random, heavy load)",
				Columns: []string{"policy", "tput", "lat(ns)"},
				Rows:    rows,
			}.Format()
		})
	}
}

func runCustomRouter(b *testing.B, mutate func(*router.Config), rate float64) experiment.TimingResult {
	return runCustomRouterKind(b, core.KindSPAABase, mutate, rate)
}

// runCustomRouterKind runs an 8x8 random-traffic simulation with a mutated
// router configuration, bypassing the standard per-kind defaults.
func runCustomRouterKind(b *testing.B, kind core.Kind, mutate func(*router.Config), rate float64) experiment.TimingResult {
	b.Helper()
	res, err := experiment.RunTimingWithRouter(experiment.TimingSetup{
		Width: 8, Height: 8, Kind: kind, Pattern: traffic.Uniform,
		Rate: rate, Cycles: ablationCycles, Seed: 1,
	}, mutate)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationPIMIterations sweeps PIM's iteration count in the
// standalone model (§3.1: PIM converges within log2 N = 4 iterations on
// the 21364's 16 arbiters; PIM1's matching is significantly worse).
func BenchmarkAblationPIMIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		cfg := DefaultStandaloneConfig(1.0)
		cfg.Cycles = 400
		for _, iters := range []int{1, 2, 4, 8} {
			total := 0.0
			const trials = 3
			for trial := 0; trial < trials; trial++ {
				c := cfg
				c.Seed = uint64(trial + 1)
				arb := core.NewPIM(iters, sim.NewRNG(c.Seed))
				total += standalone.RunArbiter(arb, c).MatchesPerCycle
			}
			rows = append(rows, []string{fmt.Sprintf("%d", iters), fmt.Sprintf("%.2f", total/trials)})
		}
		printOnce("ablation-pim-iters", func() string {
			return experiment.Table{
				Title:   "Ablation: PIM iterations vs matches/cycle (standalone, saturation load)",
				Columns: []string{"iterations", "matches/cycle"},
				Rows:    rows,
			}.Format()
		})
	}
}

// BenchmarkAblationPickerWindow sweeps the standalone model's entry-table
// picker depth: with a shallow window, blocked heads hide eligible packets
// and every algorithm's matching degrades.
func BenchmarkAblationPickerWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, 4)
		for _, window := range []int{1, 4, 16, 316} {
			cfg := DefaultStandaloneConfig(1.0)
			cfg.Cycles = 400
			cfg.Window = window
			mcm := RunStandalone(MCM, cfg).MatchesPerCycle
			spaa := RunStandalone(SPAABase, cfg).MatchesPerCycle
			rows = append(rows, []string{fmt.Sprintf("%d", window),
				fmt.Sprintf("%.2f", mcm), fmt.Sprintf("%.2f", spaa)})
		}
		printOnce("ablation-window", func() string {
			return experiment.Table{
				Title:   "Ablation: arbitration picker window (standalone, saturation load)",
				Columns: []string{"window (pkts)", "MCM", "SPAA"},
				Rows:    rows,
			}.Format()
		})
	}
}
