package experiment

import (
	"context"
	"fmt"
	"strings"
)

// Dataset bundles every figure's results so the paper's cross-figure
// claims can be evaluated on one consistent set of runs.
type Dataset struct {
	Fig8     Figure8Result
	Fig9     Figure9Result
	Fig10    []Panel // 4x4 random, 8x8 random, 8x8 bit-reversal, 8x8 shuffle
	Fig10Sat Panel   // 8x8 random, 64 outstanding, all five algorithms
	Fig11a   Panel
	Fig11b   Panel
	Fig11c   Panel
}

// CollectDataset reruns the full evaluation: every canned figure Spec
// built from o is expanded, and all their simulations run as one run of
// a Runner configured by opts, in one worker pool. WithWorkers therefore
// bounds the concurrent simulations across all figures, the first
// failing simulation stops dispatch everywhere and its own error is
// returned, and WithEventSink observes one event stream whose Done/Total
// count every simulation of the dataset. Results are assembled by job
// index, so the Dataset is identical whatever the worker count.
func CollectDataset(o Options, opts ...RunnerOption) (*Dataset, error) {
	names, plans, err := datasetPlans(o)
	if err != nil {
		return nil, err
	}
	r := NewRunner(opts...)
	results, err := r.runPlans(context.Background(), "claims dataset", plans, r.emitter())
	if err != nil {
		return nil, err
	}
	d := &Dataset{}
	for i, res := range results {
		sp := res.Spec
		switch names[i] {
		case "8":
			d.Fig8 = Figure8Result{
				LoadFractions:  sp.Standalone.Values,
				SaturationLoad: res.SaturationLoad,
				Curves:         res.Curves(),
			}
		case "9":
			d.Fig9 = Figure9Result{Occupancies: sp.Standalone.Values, Curves: res.Curves()}
		case "10":
			d.Fig10 = append(d.Fig10, res.Panel())
		case "10s":
			d.Fig10Sat = res.Panel()
		case "11a":
			d.Fig11a = res.Panel()
		case "11b":
			d.Fig11b = res.Panel()
		case "11c":
			d.Fig11c = res.Panel()
		}
	}
	return d, nil
}

// datasetPlans expands every canned figure Spec, in figureSpecNames
// order, pairing each plan with the name of the figure it belongs to.
func datasetPlans(o Options) ([]string, []*plan, error) {
	var names []string
	var plans []*plan
	for _, name := range figureSpecNames {
		specs, err := FigureSpecs(name, o)
		if err != nil {
			return nil, nil, err
		}
		for _, sp := range specs {
			pl, err := sp.expand()
			if err != nil {
				return nil, nil, err
			}
			names = append(names, name)
			plans = append(plans, pl)
		}
	}
	return names, plans, nil
}

// Verdict is one claim's evaluation.
type Verdict struct {
	ID       string // short identifier
	Paper    string // the paper's statement
	Measured string // what this reproduction measured
	OK       bool
}

// series finds a curve by label within a panel.
func (p Panel) series(label string) (int, bool) {
	for i, s := range p.Series {
		if s.Label == label {
			return i, true
		}
	}
	return 0, false
}

// saturationOf returns the peak throughput of a labeled series.
func (p Panel) saturationOf(label string) float64 {
	i, ok := p.series(label)
	if !ok {
		return 0
	}
	return p.Series[i].SaturationThroughput()
}

// finalOf returns the highest-load throughput of a labeled series.
func (p Panel) finalOf(label string) float64 {
	i, ok := p.series(label)
	if !ok {
		return 0
	}
	return p.Series[i].FinalThroughput()
}

// curve returns a figure-8 curve's values by label.
func (r Figure8Result) curve(label string) []float64 {
	return findCurve(r.Curves, label)
}

// curve returns a figure-9 curve's values by label.
func (r Figure9Result) curve(label string) []float64 {
	return findCurve(r.Curves, label)
}

func findCurve(curves []StandaloneCurve, label string) []float64 {
	for _, c := range curves {
		if c.Label == label {
			return c.Values
		}
	}
	return nil
}

func last(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// Verify evaluates every encoded claim of the paper against the dataset.
// Each verdict's Measured string is self-contained so the results table in
// EXPERIMENTS.md can be generated mechanically.
func Verify(d *Dataset) []Verdict {
	var out []Verdict
	add := func(id, paper, measured string, ok bool) {
		out = append(out, Verdict{ID: id, Paper: paper, Measured: measured, OK: ok})
	}

	// ---- Figure 8 ----
	mcm := last(d.Fig8.curve("MCM"))
	wfa := last(d.Fig8.curve("WFA-base"))
	pim := last(d.Fig8.curve("PIM"))
	pim1 := last(d.Fig8.curve("PIM1"))
	spaa := last(d.Fig8.curve("SPAA-base"))
	add("fig8-top-three",
		"the number of matches found by WFA and PIM are almost close to MCM's (§5.1)",
		fmt.Sprintf("MCM %.2f, WFA %.2f, PIM %.2f matches/cycle at saturation", mcm, wfa, pim),
		within(wfa/mcm, 0.95, 1.06) && within(pim/mcm, 0.95, 1.06))
	add("fig8-mcm-vs-spaa",
		"at the MCM saturation load, MCM/WFA/PIM find 36% more matches than SPAA",
		fmt.Sprintf("MCM/SPAA = %.2f (paper 1.36)", mcm/spaa),
		within(mcm/spaa, 1.2, 1.6))
	add("fig8-pim1-vs-spaa",
		"PIM1's number of matches is 14% higher than SPAA's",
		fmt.Sprintf("PIM1/SPAA = %.2f (paper 1.14)", pim1/spaa),
		within(pim1/spaa, 1.05, 1.45))
	add("fig8-mcm-near-seven",
		"the number of matches found by MCM is usually very close to the maximum, i.e., seven",
		fmt.Sprintf("MCM saturates at %.2f of 7", mcm),
		mcm > 6.2)

	// ---- Figure 9 ----
	g0 := d.Fig9.curve("MCM")[0] - d.Fig9.curve("SPAA-base")[0]
	g75 := last(d.Fig9.curve("MCM")) - last(d.Fig9.curve("SPAA-base"))
	add("fig9-gap-vanishes",
		"the difference between the algorithms completely disappears when 75% of the output ports are occupied",
		fmt.Sprintf("MCM-SPAA gap: %.2f at 0%% occupancy vs %.2f at 75%%", g0, g75),
		g75 < 0.25*g0)

	// ---- Figure 10: 4x4 random ----
	p4 := d.Fig10[0]
	add("fig10-4x4-spaa-wins",
		"with random traffic SPAA-base provides about 11% higher throughput than PIM1 and WFA-base (4x4, ~83 ns)",
		fmt.Sprintf("saturation throughput: SPAA-base %.3f vs WFA-base %.3f (+%.0f%%) and PIM1 %.3f (+%.0f%%)",
			p4.saturationOf("SPAA-base"), p4.saturationOf("WFA-base"),
			100*(p4.saturationOf("SPAA-base")/p4.saturationOf("WFA-base")-1),
			p4.saturationOf("PIM1"),
			100*(p4.saturationOf("SPAA-base")/p4.saturationOf("PIM1")-1)),
		p4.saturationOf("SPAA-base") > 1.02*p4.saturationOf("WFA-base") &&
			p4.saturationOf("SPAA-base") > 1.02*p4.saturationOf("PIM1"))
	add("fig10-4x4-no-collapse",
		"the 4x4 network does not show saturation behavior",
		fmt.Sprintf("SPAA-base final/peak = %.2f, WFA-base final/peak = %.2f",
			p4.finalOf("SPAA-base")/p4.saturationOf("SPAA-base"),
			p4.finalOf("WFA-base")/p4.saturationOf("WFA-base")),
		p4.finalOf("SPAA-base") > 0.9*p4.saturationOf("SPAA-base") &&
			p4.finalOf("WFA-base") > 0.9*p4.saturationOf("WFA-base"))

	// ---- Figure 10: 8x8 random ----
	p8 := d.Fig10[1]
	add("fig10-8x8-spaa-wins",
		"in the 8x8 network SPAA-base provides about 24% higher throughput than PIM1 and WFA-base (~122 ns)",
		fmt.Sprintf("saturation throughput: SPAA-base %.3f vs WFA-base %.3f (+%.0f%%) and PIM1 %.3f (+%.0f%%)",
			p8.saturationOf("SPAA-base"), p8.saturationOf("WFA-base"),
			100*(p8.saturationOf("SPAA-base")/p8.saturationOf("WFA-base")-1),
			p8.saturationOf("PIM1"),
			100*(p8.saturationOf("SPAA-base")/p8.saturationOf("PIM1")-1)),
		p8.saturationOf("SPAA-base") > 1.02*p8.saturationOf("WFA-base") &&
			p8.saturationOf("SPAA-base") > 1.02*p8.saturationOf("PIM1"))
	add("fig10-spaa-low-load-latency",
		"SPAA's shorter pipeline gives it lower latency before saturation (3 vs 4 cycles per hop)",
		fmt.Sprintf("lightest-load latency: SPAA-base %.1f ns vs WFA-base %.1f ns vs PIM1 %.1f ns",
			firstLatency(p8, "SPAA-base"), firstLatency(p8, "WFA-base"), firstLatency(p8, "PIM1")),
		firstLatency(p8, "SPAA-base") < firstLatency(p8, "WFA-base") &&
			firstLatency(p8, "SPAA-base") < firstLatency(p8, "PIM1"))

	// ---- Saturation companion (the paper's 8x8 collapse claims) ----
	ps := d.Fig10Sat
	add("fig10-rotary-spaa",
		"SPAA-rotary improves throughput by 43% over SPAA-base beyond saturation (~280 ns)",
		fmt.Sprintf("final throughput: SPAA-rotary %.3f vs SPAA-base %.3f (%.1fx; 64 outstanding)",
			ps.finalOf("SPAA-rotary"), ps.finalOf("SPAA-base"),
			ps.finalOf("SPAA-rotary")/ps.finalOf("SPAA-base")),
		ps.finalOf("SPAA-rotary") > 1.3*ps.finalOf("SPAA-base"))
	add("fig10-rotary-wfa",
		"WFA-rotary improves throughput by 16% over WFA-base beyond saturation (~280 ns)",
		fmt.Sprintf("final throughput: WFA-rotary %.3f vs WFA-base %.3f (%.1fx; 64 outstanding)",
			ps.finalOf("WFA-rotary"), ps.finalOf("WFA-base"),
			ps.finalOf("WFA-rotary")/ps.finalOf("WFA-base")),
		ps.finalOf("WFA-rotary") > 1.15*ps.finalOf("WFA-base"))
	add("fig10-rotary-holds",
		"WFA-rotary's and SPAA-rotary's delivered throughputs continue to increase past the base algorithms' saturation point",
		fmt.Sprintf("rotary final/peak: SPAA %.2f, WFA %.2f (base: %.2f, %.2f)",
			ps.finalOf("SPAA-rotary")/ps.saturationOf("SPAA-rotary"),
			ps.finalOf("WFA-rotary")/ps.saturationOf("WFA-rotary"),
			ps.finalOf("SPAA-base")/ps.saturationOf("SPAA-base"),
			ps.finalOf("WFA-base")/ps.saturationOf("WFA-base")),
		ps.finalOf("SPAA-rotary") > 0.9*ps.saturationOf("SPAA-rotary") &&
			ps.finalOf("WFA-rotary") > 0.9*ps.saturationOf("WFA-rotary"))

	// ---- Figure 11a: 2x pipeline ----
	add("fig11a-spaa-dominates",
		"with a 2x-deep, 2x-fast pipeline SPAA-rotary provides greater than 60% higher throughput than PIM1 and WFA-rotary (~100 ns)",
		fmt.Sprintf("saturation throughput: SPAA-rotary %.3f vs WFA-rotary %.3f (+%.0f%%) and PIM1 %.3f (+%.0f%%)",
			d.Fig11a.saturationOf("SPAA-rotary"), d.Fig11a.saturationOf("WFA-rotary"),
			100*(d.Fig11a.saturationOf("SPAA-rotary")/d.Fig11a.saturationOf("WFA-rotary")-1),
			d.Fig11a.saturationOf("PIM1"),
			100*(d.Fig11a.saturationOf("SPAA-rotary")/d.Fig11a.saturationOf("PIM1")-1)),
		d.Fig11a.saturationOf("SPAA-rotary") > 1.05*d.Fig11a.saturationOf("WFA-rotary") &&
			d.Fig11a.saturationOf("SPAA-rotary") > 1.05*d.Fig11a.saturationOf("PIM1"))

	// ---- Figure 11b: 64 outstanding ----
	add("fig11b-spaa-wins",
		"even at 64 outstanding misses SPAA-rotary provides roughly 13% higher throughput than WFA-rotary (~200 ns)",
		fmt.Sprintf("saturation throughput: SPAA-rotary %.3f vs WFA-rotary %.3f (+%.0f%%)",
			d.Fig11b.saturationOf("SPAA-rotary"), d.Fig11b.saturationOf("WFA-rotary"),
			100*(d.Fig11b.saturationOf("SPAA-rotary")/d.Fig11b.saturationOf("WFA-rotary")-1)),
		d.Fig11b.saturationOf("SPAA-rotary") > 1.0*d.Fig11b.saturationOf("WFA-rotary"))

	// ---- Figure 11c: 12x12 ----
	add("fig11c-spaa-wins",
		"in a 12x12 network SPAA-rotary provides an 18% higher throughput than WFA-rotary (~200 ns)",
		fmt.Sprintf("saturation throughput: SPAA-rotary %.3f vs WFA-rotary %.3f (+%.0f%%)",
			d.Fig11c.saturationOf("SPAA-rotary"), d.Fig11c.saturationOf("WFA-rotary"),
			100*(d.Fig11c.saturationOf("SPAA-rotary")/d.Fig11c.saturationOf("WFA-rotary")-1)),
		d.Fig11c.saturationOf("SPAA-rotary") > 1.0*d.Fig11c.saturationOf("WFA-rotary"))

	// ---- §4.3 calibration ----
	add("calibration-zero-load",
		"the minimum per-packet latency in a 4x4 network with uniform traffic is about 45 ns",
		fmt.Sprintf("lightest-load average latency: %.1f ns (4x4 random, SPAA-base)",
			firstLatency(p4, "SPAA-base")),
		within(firstLatency(p4, "SPAA-base"), 40, 60))

	return out
}

func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

func firstLatency(p Panel, label string) float64 {
	i, ok := p.series(label)
	if !ok || len(p.Series[i].Points) == 0 {
		return 0
	}
	return p.Series[i].Points[0].AvgLatencyNS
}

// VerdictTable formats verdicts for terminal output.
func VerdictTable(vs []Verdict) Table {
	t := Table{
		Title:   "Paper claims vs this reproduction",
		Columns: []string{"claim", "status", "measured"},
	}
	for _, v := range vs {
		status := "REPRODUCED"
		if !v.OK {
			status = "DEVIATES"
		}
		t.Rows = append(t.Rows, []string{v.ID, status, v.Measured})
	}
	return t
}

// VerdictMarkdown renders the verdicts as the EXPERIMENTS.md results table.
func VerdictMarkdown(vs []Verdict) string {
	var b strings.Builder
	b.WriteString("| # | Paper claim | Measured here | Status |\n|---|---|---|---|\n")
	for i, v := range vs {
		status := "reproduced"
		if !v.OK {
			status = "**deviates**"
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s |\n", i+1, v.Paper, v.Measured, status)
	}
	return b.String()
}
