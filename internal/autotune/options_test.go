package autotune

import (
	"context"
	"errors"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

func TestAllowSynthAddsCandidate(t *testing.T) {
	g := dgx1()
	const bytes = 1 << 20
	cands, err := CandidatesWith(context.Background(), g, bytes, Options{
		AllowSynth: true,
		Synth:      synth.Options{NoCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 7 {
		t.Fatalf("candidates = %d, want 6 built-ins + 1 synth", len(cands))
	}
	last := cands[len(cands)-1]
	if last.Algorithm != collective.AlgSynth {
		t.Fatalf("last candidate is %v, want synth", last.Algorithm)
	}
	if last.Err != nil {
		t.Fatalf("synth candidate failed: %v", last.Err)
	}
	if last.Schedule == nil {
		t.Fatal("synth candidate carries no schedule")
	}
	if !last.InOrder {
		t.Error("synthesized schedule lost its in-order proof")
	}
	if last.Total <= 0 || last.Turnaround <= 0 {
		t.Error("synth candidate has non-positive metrics")
	}
}

// On a fabric no built-in algorithm can even build (a random regular
// graph), AllowSynth is the difference between an error and a winner.
func TestSynthExtendsCoverage(t *testing.T) {
	g := topology.RandomRegular(16, 4, 10e9, 5*des.Microsecond, 1)
	const bytes = 1 << 20
	if _, err := SelectWith(context.Background(), g, bytes, Options{}); err == nil {
		t.Fatal("built-in menu unexpectedly covers a random regular graph")
	}
	best, err := BestWith(context.Background(), g, bytes, Options{
		AllowSynth: true,
		Synth:      synth.Options{NoCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Algorithm != collective.AlgSynth {
		t.Fatalf("winner is %v, want synth", best.Algorithm)
	}
}

func TestSynthCandidateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CandidatesWith(ctx, dgx1(), 1<<20, Options{
		AllowSynth: true,
		Synth:      synth.Options{NoCache: true},
	})
	if err == nil {
		t.Fatal("canceled evaluation reported a complete ranking")
	}
	var ce *des.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not wrap *des.CanceledError", err)
	}
}
