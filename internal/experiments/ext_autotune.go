package experiments

import (
	"context"
	"fmt"

	"ccube/internal/autotune"
	"ccube/internal/report"
	"ccube/internal/topology"
)

// ExtAutotune regenerates the algorithm-selection matrix: which AllReduce
// wins at each message size on each platform, under both objectives. This
// is the adaptation the paper's related work calls for (Faraj & Yuan) with
// the simulator as the tuner.
func ExtAutotune() ([]*report.Table, error) {
	sizes := []int64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20, 256 << 20}
	platforms := []struct {
		name string
		g    *topology.Graph
	}{
		{"dgx1-high", dgx1()},
		{"dgx1-low", dgx1Low()},
		{"dgx2", topology.DGX2()},
	}

	t := report.New("Extension: simulated algorithm auto-tuning (winner per size/objective)",
		"platform", "size", "latency winner", "total", "turnaround winner", "turnaround")
	for _, p := range platforms {
		for _, n := range sizes {
			lat, err := autotune.BestWith(context.Background(), p.g, n, autotune.Options{Objective: autotune.Latency})
			if err != nil {
				return nil, fmt.Errorf("autotune %s %d: %w", p.name, n, err)
			}
			turn, err := autotune.BestWith(context.Background(), p.g, n, autotune.Options{Objective: autotune.Turnaround})
			if err != nil {
				return nil, err
			}
			t.AddRow(p.name, report.Bytes(n),
				lat.Algorithm.String(), report.Time(lat.Total),
				turn.Algorithm.String(), report.Time(turn.Turnaround))
		}
	}
	t.AddNote("ranking by simulation replaces NCCL's hand-tuned size thresholds on the modeled machine")

	// The chaining consumer's view: in-order algorithms only.
	io := report.New("Auto-tuning under the gradient-queuing constraint (in-order algorithms only, dgx1-high)",
		"size", "winner", "turnaround", "vs unconstrained winner")
	for _, n := range sizes {
		all, err := autotune.BestWith(context.Background(), dgx1(), n, autotune.Options{Objective: autotune.Turnaround})
		if err != nil {
			return nil, err
		}
		constrained, err := autotune.BestWith(context.Background(), dgx1(), n, autotune.Options{Objective: autotune.Turnaround, RequireInOrder: true})
		if err != nil {
			return nil, err
		}
		io.AddRow(report.Bytes(n), constrained.Algorithm.String(),
			report.Time(constrained.Turnaround),
			report.Ratio(float64(constrained.Turnaround)/float64(all.Turnaround)))
	}
	io.AddNote("Observation #3: ring and halving-doubling cannot feed the gradient queue")
	return []*report.Table{t, io}, nil
}
