// Package autotune selects the best AllReduce algorithm for a given
// topology and message size by simulating the candidates — the adaptation
// the paper's related work calls for (Faraj & Yuan: "collective
// communications must adapt to the system architecture"). NCCL performs the
// same selection with hand-tuned thresholds; here the discrete-event
// simulator itself is the tuner, so the choice reflects the modeled
// machine exactly.
//
// Rankings depend on the consumer's objective:
//
//   - Latency: total AllReduce completion time — batch-synchronous callers
//     that cannot overlap anything.
//   - Turnaround: time until the first chunk is ready everywhere — C-Cube
//     style chaining consumers, which care about when computation can start.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// Objective selects the metric to rank by.
type Objective int

const (
	// Latency ranks by total completion time.
	Latency Objective = iota
	// Turnaround ranks by first-chunk availability (chaining consumers).
	Turnaround
)

func (o Objective) String() string {
	switch o {
	case Latency:
		return "latency"
	case Turnaround:
		return "turnaround"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Options collects the tuner's knobs in one place. The positional-bool
// entry points (Select, SelectCtx, Best, BestCtx) accreted incompatible
// signatures — Select hardcoded sharing off while SelectCtx exposed it —
// so the struct is now the canonical spelling and the positional variants
// are deprecated thin wrappers over it.
type Options struct {
	// Objective selects the ranking metric (default Latency).
	Objective Objective
	// RequireInOrder excludes algorithms without the in-order property
	// (ring, halving-doubling) — a gradient-queuing consumer cannot use
	// them (Observation #3).
	RequireInOrder bool
	// AllowShared lets built-in tree algorithms share channels between
	// trees on fabrics too small for disjoint packing.
	AllowShared bool
	// AllowSynth adds a schedule-synthesis candidate (internal/synth) to
	// the evaluated set, letting compiled schedules compete with the
	// hand-written menu.
	AllowSynth bool
	// Synth configures the synthesis candidate when AllowSynth is set.
	Synth synth.Options
}

// Candidate is one evaluated algorithm.
type Candidate struct {
	Algorithm  collective.Algorithm
	Total      des.Time
	Turnaround des.Time
	InOrder    bool
	Err        error // non-nil when the algorithm cannot run on the topology

	// Schedule is the compiled schedule for the synth candidate (nil for
	// built-ins, which consumers rebuild through the schedule cache by
	// algorithm name).
	Schedule *collective.Schedule
}

// metric returns the candidate's value under the objective.
func (c Candidate) metric(o Objective) des.Time {
	if o == Turnaround {
		return c.Turnaround
	}
	return c.Total
}

// CandidatesWith returns every algorithm evaluated on the topology at the
// given size, in algorithm order — plus a synthesis candidate at the end
// when opts.AllowSynth is set. Algorithms that cannot run (e.g.
// halving-doubling on a non-power-of-two system) carry a non-nil Err. Each
// candidate simulation runs with ctx, and a cancellation (deadline or
// explicit) aborts the whole evaluation with the wrapped *des.CanceledError
// instead of recording it as that algorithm's failure — a half-evaluated
// ranking must not be mistaken for a complete one.
func CandidatesWith(ctx context.Context, g *topology.Graph, bytes int64, opts Options) ([]Candidate, error) {
	algs := []collective.Algorithm{
		collective.AlgRing,
		collective.AlgHalvingDoubling,
		collective.AlgTree,
		collective.AlgTreeOverlap,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
	}
	out := make([]Candidate, 0, len(algs)+1)
	for _, alg := range algs {
		c := Candidate{Algorithm: alg}
		res, err := collective.RunCtx(ctx, collective.Config{
			Graph:               g,
			Algorithm:           alg,
			Bytes:               bytes,
			AllowSharedChannels: opts.AllowShared,
		})
		if err != nil {
			var ce *des.CanceledError
			if errors.As(err, &ce) {
				return nil, err
			}
			c.Err = err
		} else {
			c.Total = res.Total
			c.Turnaround = res.Turnaround
			c.InOrder = res.InOrder
		}
		out = append(out, c)
	}
	if opts.AllowSynth {
		out = append(out, synthCandidate(ctx, g, bytes, opts.Synth))
		if err := out[len(out)-1].Err; err != nil {
			var ce *des.CanceledError
			if errors.As(err, &ce) {
				return nil, err
			}
		}
	}
	return out, nil
}

// synthCandidate compiles and simulates the synthesis candidate. The
// compiled schedule rides along in Candidate.Schedule so the winner can be
// executed without recompiling.
func synthCandidate(ctx context.Context, g *topology.Graph, bytes int64, opts synth.Options) Candidate {
	c := Candidate{Algorithm: collective.AlgSynth}
	res, err := synth.Synthesize(ctx, g, bytes, opts)
	if err != nil {
		c.Err = err
		return c
	}
	sim, err := res.Schedule.ExecuteCtx(ctx)
	if err != nil {
		c.Err = err
		return c
	}
	c.Total = sim.Total
	c.Turnaround = sim.Turnaround
	c.InOrder = sim.InOrder
	c.Schedule = res.Schedule
	return c
}

// SelectWith returns the runnable candidates ranked best-first under
// opts.Objective, after applying the option filters.
func SelectWith(ctx context.Context, g *topology.Graph, bytes int64, opts Options) ([]Candidate, error) {
	all, err := CandidatesWith(ctx, g, bytes, opts)
	if err != nil {
		return nil, err
	}
	var runnable []Candidate
	for _, c := range all {
		if c.Err != nil {
			continue
		}
		if opts.RequireInOrder && !c.InOrder {
			continue
		}
		runnable = append(runnable, c)
	}
	if len(runnable) == 0 {
		return nil, fmt.Errorf("autotune: no runnable algorithm for this topology")
	}
	sort.SliceStable(runnable, func(a, b int) bool {
		return runnable[a].metric(opts.Objective) < runnable[b].metric(opts.Objective)
	})
	return runnable, nil
}

// BestWith returns only the winner under the given options.
func BestWith(ctx context.Context, g *topology.Graph, bytes int64, opts Options) (Candidate, error) {
	ranked, err := SelectWith(ctx, g, bytes, opts)
	if err != nil {
		return Candidate{}, err
	}
	return ranked[0], nil
}
