package collective

import (
	"errors"
	"math/rand"
	"testing"

	"ccube/internal/topology"
)

// usedChannels returns the distinct channels a schedule rides, id order.
func usedChannels(s *Schedule) []topology.ChannelID {
	seen := make(map[topology.ChannelID]bool)
	var out []topology.ChannelID
	for _, t := range s.transfers {
		if t.isMarker() || seen[t.channel] {
			continue
		}
		seen[t.channel] = true
		out = append(out, t.channel)
	}
	return out
}

// repairVerified is RepairSchedule followed by its Verify gate, failing the
// test on either error.
func repairVerified(t *testing.T, s *Schedule, channels []topology.ChannelID, opts *PatchOptions) (*Schedule, *PatchReport) {
	t.Helper()
	u, rep, err := RepairSchedule(s, channels, opts)
	if err != nil {
		t.Fatalf("RepairSchedule: %v", err)
	}
	out, err := u.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return out, rep
}

// The acceptance scenario: a DGX-1 run of each algorithm with one injected
// dead link completes via an automatically repaired route, and the repaired
// schedule passes full static verification.
func TestRepairScheduleDGX1DoubleTreeDeadLink(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alg := range []Algorithm{AlgDoubleTreeOverlap, AlgDoubleTree, AlgTreeOverlap, AlgRing, AlgHalvingDoubling} {
		t.Run(alg.String(), func(t *testing.T) {
			g := dgx1()
			s, err := Build(Config{Graph: g, Algorithm: alg, Bytes: 1 << 20, Chunks: 8})
			if err != nil {
				t.Fatal(err)
			}
			used := usedChannels(s)
			dead := used[len(used)/2]
			g.KillChannel(dead)

			// The unrepaired schedule must now fail verification and refuse
			// instantiation with a structured error.
			if err := s.Verify(); err == nil {
				t.Fatal("schedule over a dead channel verified clean")
			}
			if _, err := s.Execute(); err == nil {
				t.Fatal("Execute over a dead channel succeeded")
			} else {
				var dce *DeadChannelError
				if !errors.As(err, &dce) || dce.Channel != dead {
					t.Fatalf("Execute error = %v, want DeadChannelError on channel %d", err, dead)
				}
			}
			if down := s.DownChannels(); len(down) != 1 || down[0] != dead {
				t.Fatalf("DownChannels = %v, want [%d]", down, dead)
			}

			repaired, rep := repairVerified(t, s, s.DownChannels(), nil)
			if rep.Rerouted == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead {
				t.Fatalf("report = %+v, want reroutes around channel %d", rep, dead)
			}
			if down := repaired.DownChannels(); len(down) != 0 {
				t.Fatalf("repaired schedule still rides dead channels %v", down)
			}
			// The delta gate's oracle: the full static verifier (hazards,
			// links, conservation, in-order) accepts the patch too — the
			// Contract survives the repair.
			if err := repaired.Validate(); err != nil {
				t.Fatalf("repaired schedule: %v", err)
			}
			// The repaired schedule still computes an exact AllReduce.
			checkAllReduceData(t, repaired, rng, 1024)
			// And it executes end to end on the timing engine.
			res, err := repaired.Execute()
			if err != nil {
				t.Fatalf("repaired Execute: %v", err)
			}
			if res.Total <= 0 {
				t.Fatal("repaired run has non-positive makespan")
			}
			// The original schedule is untouched by the repair.
			for _, tr := range s.transfers {
				if !tr.isMarker() && tr.channel == dead {
					return // still references the dead channel, as built
				}
			}
			t.Fatal("original schedule mutated by RepairSchedule")
		})
	}
}

// Killing every channel one at a time across the whole schedule: every
// single-link failure on a DGX-1 double tree must be repairable from the
// schedule's own DownChannels (the hybrid mesh-cube always has a parallel
// link or a one-GPU detour), and the repair passes full static verification.
func TestRepairScheduleEverySingleLinkFailure(t *testing.T) {
	base, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range usedChannels(base) {
		g := dgx1()
		s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		g.KillChannel(dead)
		repaired, _ := repairVerified(t, s, s.DownChannels(), nil)
		if err := repaired.Validate(); err != nil {
			t.Fatalf("channel %d: repaired schedule: %v", dead, err)
		}
	}
}

// Every single-link failure named explicitly is patched incrementally on the
// DGX-1 double tree, the delta verifier accepts the patch, and — the
// acceptance property — every CheckPatch-verified patch also passes the full
// static verifier, still computes an exact AllReduce, and leaves the base
// schedule as it was.
func TestRepairIncrementalEverySingleLinkFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range usedChannels(base) {
		g := dgx1()
		s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		g.KillChannel(dead)
		patched, rep := repairVerified(t, s, []topology.ChannelID{dead}, nil)
		if rep.Rerouted == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead {
			t.Fatalf("channel %d: report = %+v, want reroutes around it", dead, rep)
		}
		if len(rep.OldToNew) != s.NumTransfers() {
			t.Fatalf("channel %d: OldToNew covers %d of %d transfers", dead, len(rep.OldToNew), s.NumTransfers())
		}
		if len(rep.Touched) == 0 {
			t.Fatalf("channel %d: patch rerouted %d transfers but touched none", dead, rep.Rerouted)
		}
		// CheckPatch-verified implies full-Verify clean: the delta proofs
		// must never accept a schedule the whole-program oracle rejects.
		if err := patched.Validate(); err != nil {
			t.Fatalf("channel %d: CheckPatch accepted but full verification rejects: %v", dead, err)
		}
		if down := patched.DownChannels(); len(down) != 0 {
			t.Fatalf("channel %d: patched schedule still rides dead channels %v", dead, down)
		}
		checkAllReduceData(t, patched, rng, 1024)
		// The base schedule is untouched.
		if down := s.DownChannels(); len(down) != 1 || down[0] != dead {
			t.Fatalf("channel %d: base schedule mutated by the repair (DownChannels = %v)", dead, down)
		}
	}
}

// The patch is genuinely incremental: on a fabric with parallel channels the
// vast majority of transfers survive untouched, and the untouched ones keep
// their channel assignments under the OldToNew renumbering.
func TestRepairIncrementalTouchesOnlyStrandedRegion(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannels(s)[0]
	g.KillChannel(dead)
	patched, rep := repairVerified(t, s, []topology.ChannelID{dead}, nil)
	if len(rep.Touched) >= s.NumTransfers()/2 {
		t.Fatalf("patch touched %d of %d transfers — not incremental", len(rep.Touched), s.NumTransfers())
	}
	touched := make(map[int]bool, len(rep.Touched))
	for _, id := range rep.Touched {
		touched[id] = true
	}
	for old, tr := range s.transfers {
		id := rep.OldToNew[old]
		if touched[id] || tr.isMarker() {
			continue
		}
		if patched.transfers[id].channel != tr.channel || patched.transfers[id].bytes != tr.bytes {
			t.Fatalf("untouched transfer %d changed channel/bytes under renumbering", old)
		}
	}
}

// Skip masks executed transfers out of the patch: a transfer that already
// ran on the (now dead) channel is left in place, and only the unexecuted
// remainder is rerouted. This is the live-adaptation contract.
func TestRepairIncrementalSkipsExecutedPrefix(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannels(s)[0]
	var onDead []int
	for _, tr := range s.transfers {
		if !tr.isMarker() && tr.channel == dead {
			onDead = append(onDead, tr.id)
		}
	}
	if len(onDead) < 2 {
		t.Skipf("only %d transfers on channel %d", len(onDead), dead)
	}
	skip := make([]bool, s.NumTransfers())
	skip[onDead[0]] = true // pretend the first stranded transfer already executed
	g.KillChannel(dead)
	// A patched schedule keeping an executed transfer on a dead channel can
	// only be resumed, never re-verified whole against the dead fabric —
	// the delta gate (static structure) must still accept it.
	patched, rep := repairVerified(t, s, []topology.ChannelID{dead}, &PatchOptions{Skip: skip})
	if rep.Rerouted != len(onDead)-1 {
		t.Fatalf("rerouted %d, want %d (one transfer was executed)", rep.Rerouted, len(onDead)-1)
	}
	if got := patched.transfers[rep.OldToNew[onDead[0]]].channel; got != dead {
		t.Fatalf("executed transfer moved to channel %d", got)
	}

	// Bad skip set length is rejected.
	if _, _, err := RepairSchedule(s, []topology.ChannelID{dead}, &PatchOptions{Skip: make([]bool, 3)}); err == nil {
		t.Fatal("short skip set accepted")
	}
}

// A degraded channel with a healthy sibling gets its load rebalanced across
// the parallel group, and the patch verifies.
func TestRepairIncrementalDegradedRebalance(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Find a used channel with a healthy parallel sibling.
	var target topology.ChannelID = -1
	for _, cid := range usedChannels(s) {
		ch := g.Channel(cid)
		if len(g.ChannelsBetween(ch.From, ch.To)) > 1 {
			target = cid
			break
		}
	}
	if target < 0 {
		t.Skip("no parallel channels on this topology")
	}
	g.DegradeChannel(target, 16)
	patched, rep := repairVerified(t, s, []topology.ChannelID{target}, nil)
	if rep.Rerouted == 0 || rep.Rebalanced != rep.Rerouted || rep.AddedHops != 0 {
		t.Fatalf("report = %+v, want pure rebalancing off the degraded channel", rep)
	}
	if err := patched.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rebalancing must actually relieve the slow link: the degraded run on
	// the patched schedule beats the unpatched one.
	slow, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := patched.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if fast.Total >= slow.Total {
		t.Fatalf("rebalanced makespan %v >= degraded %v", fast.Total, slow.Total)
	}
}

// When a GPU loses every outgoing link, no detour exists: the repair must
// fail with a structured UnrepairableError, never hang or panic.
func TestRepairScheduleUnrepairable(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, cid := range g.Out(topology.NodeID(2)) {
		g.KillChannel(cid)
	}
	_, _, err = RepairSchedule(s, s.DownChannels(), nil)
	var ue *UnrepairableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrepairableError", err)
	}
	if ue.Error() == "" {
		t.Fatal("empty error string")
	}
}

// Naming every outgoing channel of a GPU explicitly — including ones the
// schedule never rides — fails the same way: the patch finds no healthy
// replacement route and returns the structured UnrepairableError the fault
// layer's fallback keys on.
func TestRepairIncrementalUnrepairable(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var killed []topology.ChannelID
	for _, cid := range g.Out(topology.NodeID(2)) {
		g.KillChannel(cid)
		killed = append(killed, cid)
	}
	_, _, err = RepairSchedule(s, killed, nil)
	var ue *UnrepairableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrepairableError", err)
	}
}

// killUnusedChannel kills and returns a channel s never rides, skipping the test
// if s uses every channel of g.
func killUnusedChannel(t *testing.T, g *topology.Graph, s *Schedule) topology.ChannelID {
	t.Helper()
	used := make(map[topology.ChannelID]bool)
	for _, cid := range usedChannels(s) {
		used[cid] = true
	}
	for c := 0; c < g.NumChannels(); c++ {
		if cid := topology.ChannelID(c); !used[cid] {
			g.KillChannel(cid)
			return cid
		}
	}
	t.Skip("schedule uses every channel")
	return -1
}

// A repair that strands nothing is the identity — no reroutes, no
// renumbering, transfers in their original order — and Verify only restamps
// it, so a schedule whose topology fingerprint drifted (here: a dead channel
// it never rides) executes again.
func TestRepairScheduleNoFaultsIsIdentity(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.stamp()
	killUnusedChannel(t, g, s)
	var stale *StaleScheduleError
	if _, err := s.Execute(); !errors.As(err, &stale) {
		t.Fatalf("Execute after a topology change = %v, want *StaleScheduleError", err)
	}
	repaired, rep := repairVerified(t, s, s.DownChannels(), nil)
	if rep.Rerouted != 0 || rep.AddedHops != 0 || len(rep.DeadChannels) != 0 || len(rep.Touched) != 0 {
		t.Fatalf("report = %+v, want identity", rep)
	}
	if repaired.NumTransfers() != s.NumTransfers() {
		t.Fatalf("transfers %d != %d", repaired.NumTransfers(), s.NumTransfers())
	}
	for i, tr := range s.transfers {
		if rep.OldToNew[i] != i || repaired.transfers[i].label != tr.label {
			t.Fatalf("transfer %d renumbered to %d", i, rep.OldToNew[i])
		}
	}
	if _, err := repaired.Execute(); err != nil {
		t.Fatalf("restamped schedule: %v", err)
	}
}

// Patching around a channel named explicitly that the schedule never uses is
// the identity too, and out-of-range channel ids are rejected.
func TestRepairIncrementalIdentity(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	unused := killUnusedChannel(t, g, s)
	patched, rep := repairVerified(t, s, []topology.ChannelID{unused}, nil)
	if rep.Rerouted != 0 || len(rep.Touched) != 0 || patched.NumTransfers() != s.NumTransfers() {
		t.Fatalf("report = %+v, want identity", rep)
	}

	// Out-of-range channel ids are rejected.
	if _, _, err := RepairSchedule(s, []topology.ChannelID{topology.ChannelID(g.NumChannels())}, nil); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
}

// Verify rejects tampering: a patched program whose untouched region was
// silently modified must fail delta verification — the proof-transfer
// argument depends on untouched ops being bit-identical modulo renumbering.
func TestRepairVerifyRejectsTampering(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannels(s)[0]
	g.KillChannel(dead)
	u, rep, err := RepairSchedule(s, []topology.ChannelID{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	touched := make(map[int]bool)
	for _, id := range rep.Touched {
		touched[id] = true
	}
	// Retarget one untouched transfer onto a sibling channel behind the
	// verifier's back.
	tampered := false
	for _, tr := range u.s.transfers {
		if tr.isMarker() || touched[tr.id] {
			continue
		}
		ch := g.Channel(tr.channel)
		for _, sib := range g.ChannelsBetween(ch.From, ch.To) {
			if sib != tr.channel && !g.Channel(sib).Down() {
				tr.channel = sib
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Skip("no untouched transfer with a parallel sibling")
	}
	if _, err := u.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered untouched region")
	}
}

// A degraded (but alive) channel needs no repair, only more time: Execute
// succeeds and the makespan grows.
func TestDegradedChannelSlowsButCompletes(t *testing.T) {
	build := func(g *topology.Graph) *Schedule {
		s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gh := dgx1()
	healthy, err := build(gh).Execute()
	if err != nil {
		t.Fatal(err)
	}
	gd := dgx1()
	sd := build(gd)
	gd.DegradeChannel(usedChannels(sd)[0], 8)
	degraded, err := sd.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Total <= healthy.Total {
		t.Fatalf("degraded makespan %v <= healthy %v", degraded.Total, healthy.Total)
	}
}
