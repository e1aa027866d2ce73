package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"

	"alpha21364/internal/experiment"
)

// pins.json holds, per workload, the experiment.Runner result of the
// workload's Spec at defaultSeed, point by point in series order. The
// self-tests re-derive it through the Runner; regenerate it with
// `go test -run TestPins -update`.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string][]experiment.ResultPoint, error) {
	var pins map[string][]experiment.ResultPoint
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// referencePoints runs the workload's Spec through experiment.Runner and
// flattens the result to the workload's point order. check enables the
// Runner's online invariant oracle, which does not change the results.
func referencePoints(ctx context.Context, w *workloadDef, seed uint64, check bool) ([]experiment.ResultPoint, error) {
	sp := w.spec(seed)
	sp.Check = check
	res, err := experiment.NewRunner().Run(ctx, sp)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	var pts []experiment.ResultPoint
	for _, s := range res.Series {
		pts = append(pts, s.Points...)
	}
	if len(pts) != len(w.points()) {
		return nil, fmt.Errorf("reference run: %d points, want %d", len(pts), len(w.points()))
	}
	return pts, nil
}

// expected returns what every pass of w at seed must reproduce: the
// pinned result at defaultSeed, and a checked Runner run at any other
// seed.
func expected(ctx context.Context, w *workloadDef, seed uint64) ([]experiment.ResultPoint, string, error) {
	if seed == defaultSeed {
		pins, err := loadPins()
		if err != nil {
			return nil, "", err
		}
		pts, ok := pins[w.name]
		if !ok || len(pts) != len(w.points()) {
			return nil, "", fmt.Errorf("pins.json: no pins for %s", w.name)
		}
		return pts, "pins.json", nil
	}
	pts, err := referencePoints(ctx, w, seed, true)
	return pts, "checked Runner run", err
}
