package collective

import (
	"fmt"
	"sort"

	"ccube/internal/topology"
)

// DeadChannelError reports a transfer scheduled over a channel that has
// failed. Instantiate returns it instead of silently timing traffic over a
// dead link; callers react by repairing the schedule around the channels
// DownChannels lists (RepairSchedule) and verifying the result.
type DeadChannelError struct {
	Transfer int
	Label    string
	Channel  topology.ChannelID
	From, To topology.NodeID
}

func (e *DeadChannelError) Error() string {
	return fmt.Sprintf("collective: transfer %d (%s) rides dead channel %d (%d->%d); repair the schedule",
		e.Transfer, e.Label, e.Channel, e.From, e.To)
}

// UnrepairableError reports that no healthy replacement route exists for a
// transfer stranded by a dead channel. It is the structured "fail loudly"
// outcome the resilience layer promises instead of a deadlock.
type UnrepairableError struct {
	Channel  topology.ChannelID
	From, To topology.NodeID
	Reason   string
}

func (e *UnrepairableError) Error() string {
	return fmt.Sprintf("collective: unrepairable: no healthy route replaces dead channel %d (%d->%d): %s",
		e.Channel, e.From, e.To, e.Reason)
}

// PatchOptions tunes RepairSchedule.
type PatchOptions struct {
	// Skip marks transfers (by id in the input schedule) that must be left
	// untouched even when they ride a patched channel — live adaptation
	// passes the checkpoint's executed set here: a transfer that already ran
	// before the link died needs no reroute, and rerouting it would falsify
	// the recorded timing.
	Skip []bool
}

// PatchReport summarizes what RepairSchedule changed, in terms the delta
// verifier (schedcheck.CheckPatch) and checkpoint remapping consume
// directly.
type PatchReport struct {
	// DeadChannels are the down channels that were patched around, id order.
	DeadChannels []topology.ChannelID
	// Rerouted counts transfers moved off their original channel.
	Rerouted int
	// Rebalanced counts rerouted transfers that were spread across two or
	// more surviving parallel channels by the load balancer (rather than all
	// dumped on one replacement).
	Rebalanced int
	// AddedHops counts forwarding transfers appended for multi-hop detours.
	AddedHops int
	// Routes describes each repair, for diagnostics.
	Routes []string
	// OldToNew maps every input-schedule transfer id to its id in the
	// patched schedule (renumbering moves ids; nothing is ever deleted).
	OldToNew []int
	// Touched lists the patched-schedule ids of modified and added
	// transfers, ascending. Everything not listed is identical to its base
	// transfer modulo renumbering.
	Touched []int
}

// DownChannels returns the distinct failed channels the schedule's
// transfers ride, in id order — the channel list RepairSchedule needs to
// route a schedule off every dead link before launch.
func (s *Schedule) DownChannels() []topology.ChannelID {
	seen := make(map[topology.ChannelID]bool)
	var down []topology.ChannelID
	for _, t := range s.transfers {
		if t.isMarker() || seen[t.channel] || !s.Graph.Channel(t.channel).Down() {
			continue
		}
		seen[t.channel] = true
		down = append(down, t.channel)
	}
	sort.Slice(down, func(i, j int) bool { return down[i] < down[j] })
	return down
}

// RepairSchedule patches a verified schedule around the given channels,
// implementing the paper's detour mechanism (§IV-A) as a repair: only
// transfers riding those channels are rewritten; the rest of the schedule —
// typically all but a few of thousands of transfers at scale-out sizes —
// survives bit-identical modulo renumbering. The input schedule is not
// modified. Pre-launch and relaunch repair pass s.DownChannels() and no
// options; live adaptation passes the channel that died mid-run and the
// checkpoint's executed set as Skip.
//
// Per patched channel:
//   - down, with healthy parallel channels between the same endpoints: the
//     stranded transfers are spread across the survivors, each assigned
//     greedily to the channel that finishes it earliest under the load
//     already placed there (bytes weighted by effective bandwidth) — the
//     load-rebalancing that recovers most of the lost bandwidth instead of
//     serializing everything behind one replacement;
//   - down, no parallel survivor: one replacement route shared by every
//     stranded transfer, preferring idle channels — a direct healthy
//     channel, else a forwarding chain through one intermediate GPU (or a
//     modeled PCIe fallback channel, when the topology includes one),
//     spliced per transfer;
//   - degraded but alive: its transfers are rebalanced across the healthy
//     parallel channels including itself, shifting load toward the faster
//     links.
//
// The result is an *Unverified schedule: it cannot execute until its Verify
// proves the patch against s (schedcheck.CheckPatch) and stamps it. A patch
// that changes nothing keeps the identity renumbering, so Verify only
// restamps it against the current topology. When a stranded transfer has no
// healthy replacement route the repair fails with *UnrepairableError.
func RepairSchedule(s *Schedule, channels []topology.ChannelID, opts *PatchOptions) (*Unverified, *PatchReport, error) {
	rep := &PatchReport{}
	out := s.clone()
	oldN := len(out.transfers)

	var skip []bool
	if opts != nil && opts.Skip != nil {
		if len(opts.Skip) != oldN {
			return nil, nil, fmt.Errorf("collective: skip set covers %d of %d transfers", len(opts.Skip), oldN)
		}
		skip = opts.Skip
	}

	targetSet := make(map[topology.ChannelID]bool, len(channels))
	var targets []topology.ChannelID
	for _, cid := range channels {
		if cid < 0 || int(cid) >= out.Graph.NumChannels() {
			return nil, nil, fmt.Errorf("collective: patch channel %d does not exist", cid)
		}
		if !targetSet[cid] {
			targetSet[cid] = true
			targets = append(targets, cid)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	byChannel := make(map[topology.ChannelID][]*transfer)
	for _, t := range out.transfers {
		if t.isMarker() || (skip != nil && skip[t.id]) {
			continue
		}
		if targetSet[t.channel] {
			byChannel[t.channel] = append(byChannel[t.channel], t)
		}
	}

	// The detour router is built lazily: the common case (a parallel channel
	// survives) never needs it. It is seeded with every healthy channel the
	// schedule still uses, so replacement routes prefer idle links.
	var router *topology.Router
	getRouter := func() *topology.Router {
		if router == nil {
			router = topology.NewRouter(out.Graph)
			for _, t := range out.transfers {
				if t.isMarker() || out.Graph.Channel(t.channel).Down() {
					continue
				}
				if !router.Claimed(t.channel) {
					router.Claim(t.channel)
				}
			}
		}
		return router
	}

	touched := make(map[int]bool)
	for _, cid := range targets {
		stranded := byChannel[cid]
		if len(stranded) == 0 {
			continue
		}
		ch := out.Graph.Channel(cid)
		var sibs []topology.ChannelID
		for _, sc := range out.Graph.ChannelsBetween(ch.From, ch.To) {
			if sc != cid && !out.Graph.Channel(sc).Down() {
				sibs = append(sibs, sc)
			}
		}
		switch {
		case ch.Down() && len(sibs) > 0:
			rep.DeadChannels = append(rep.DeadChannels, cid)
			moved := out.rebalance(stranded, sibs, touched)
			rep.Rerouted += moved
			if len(sibs) > 1 {
				rep.Rebalanced += moved
			}
			rep.Routes = append(rep.Routes, fmt.Sprintf("ch%d %s->%s -> %d transfers rebalanced across %d parallel channels",
				cid, out.Graph.Node(ch.From).Name, out.Graph.Node(ch.To).Name, moved, len(sibs)))
		case ch.Down():
			rt, err := replacementRoute(out.Graph, getRouter(), ch.From, ch.To)
			if err != nil {
				return nil, nil, &UnrepairableError{Channel: cid, From: ch.From, To: ch.To, Reason: err.Error()}
			}
			rep.DeadChannels = append(rep.DeadChannels, cid)
			rep.Routes = append(rep.Routes, describeRoute(out.Graph, cid, rt))
			for _, t := range stranded {
				rep.Rerouted++
				touched[t.id] = true
				if rt.Direct() {
					t.channel = rt.Channels[0]
					continue
				}
				rep.AddedHops += rt.Hops() - 1
				out.splice(t, rt)
			}
		default:
			// Degraded but alive: shift load across the parallel group,
			// including the degraded channel itself at its reduced bandwidth.
			if len(sibs) == 0 {
				continue
			}
			group := append([]topology.ChannelID{cid}, sibs...)
			moved := out.rebalance(stranded, group, touched)
			rep.Rerouted += moved
			rep.Rebalanced += moved
			rep.Routes = append(rep.Routes, fmt.Sprintf("ch%d degraded x%.2g -> %d transfers rebalanced across %d parallel channels",
				cid, ch.DegradeFactor(), moved, len(group)))
		}
	}

	if len(touched) == 0 {
		// Nothing changed. Renumbering an untouched schedule could still
		// permute ids (and with them the DES's tie-breaks), so keep the
		// identity.
		rep.OldToNew = make([]int, oldN)
		for i := range rep.OldToNew {
			rep.OldToNew[i] = i
		}
		return &Unverified{s: out, base: s, patch: rep}, rep, nil
	}
	newID, err := out.normalizeMap()
	if err != nil {
		return nil, nil, fmt.Errorf("collective: patch produced an unorderable schedule: %w", err)
	}
	rep.OldToNew = append([]int(nil), newID[:oldN]...)
	for old := range touched {
		rep.Touched = append(rep.Touched, newID[old])
	}
	for old := oldN; old < len(newID); old++ {
		rep.Touched = append(rep.Touched, newID[old])
	}
	sort.Ints(rep.Touched)
	if err := out.validateStructure(); err != nil {
		return nil, nil, fmt.Errorf("collective: patched schedule failed structural validation: %w", err)
	}
	return &Unverified{s: out, base: s, patch: rep}, rep, nil
}

// rebalance assigns each stranded transfer (id order) to the channel in
// group that would finish it earliest: per-channel load is seeded with the
// traffic the rest of the schedule already places there, and each
// assignment adds bytes/effective-bandwidth. Deterministic: ties go to the
// earliest group position. Returns how many transfers changed channel.
func (s *Schedule) rebalance(stranded []*transfer, group []topology.ChannelID, touched map[int]bool) int {
	inStranded := make(map[int]bool, len(stranded))
	for _, t := range stranded {
		inStranded[t.id] = true
	}
	idx := make(map[topology.ChannelID]int, len(group))
	load := make([]float64, len(group))
	for k, cid := range group {
		idx[cid] = k
	}
	for _, t := range s.transfers {
		if t.isMarker() || inStranded[t.id] {
			continue
		}
		if k, ok := idx[t.channel]; ok {
			load[k] += float64(t.bytes) / s.Graph.Channel(t.channel).EffectiveBandwidth()
		}
	}
	moved := 0
	for _, t := range stranded {
		best, bestCost := -1, 0.0
		for k, cid := range group {
			cost := load[k] + float64(t.bytes)/s.Graph.Channel(cid).EffectiveBandwidth()
			if best < 0 || cost < bestCost {
				best, bestCost = k, cost
			}
		}
		load[best] = bestCost
		if group[best] != t.channel {
			t.channel = group[best]
			touched[t.id] = true
			moved++
		}
	}
	return moved
}

// replacementRoute finds a healthy route a->b: first over idle channels via
// the transactional router, then sharing busy healthy channels (direct, then
// one-GPU detour). Claims for multi-use are intentional — the repair may
// funnel several flows over one surviving link; the des.Resource serializes
// them and timing honestly reflects the contention.
func replacementRoute(g *topology.Graph, router *topology.Router, a, b topology.NodeID) (topology.Route, error) {
	tx := router.Begin()
	rt, err := tx.Route(a, b)
	if err == nil {
		tx.Commit()
		return rt, nil
	}
	tx.Rollback()

	healthyDirect := func(x, y topology.NodeID) topology.ChannelID {
		for _, cid := range g.ChannelsBetween(x, y) {
			if !g.Channel(cid).Down() {
				return cid
			}
		}
		return -1
	}
	if cid := healthyDirect(a, b); cid >= 0 {
		return topology.Route{Channels: []topology.ChannelID{cid}}, nil
	}
	for _, mid := range g.Neighbors(a) {
		if g.Node(mid).Kind != topology.GPU || mid == b {
			continue
		}
		first := healthyDirect(a, mid)
		if first < 0 {
			continue
		}
		second := healthyDirect(mid, b)
		if second < 0 {
			continue
		}
		return topology.Route{Channels: []topology.ChannelID{first, second}}, nil
	}
	return topology.Route{}, fmt.Errorf("no healthy direct channel or single-GPU detour from %s to %s",
		g.Node(a).Name, g.Node(b).Name)
}

func describeRoute(g *topology.Graph, dead topology.ChannelID, rt topology.Route) string {
	ch := g.Channel(dead)
	if rt.Direct() {
		nc := g.Channel(rt.Channels[0])
		return fmt.Sprintf("ch%d %s->%s -> parallel ch%d (%s)", dead,
			g.Node(ch.From).Name, g.Node(ch.To).Name, nc.ID, nc.Tag)
	}
	via := rt.Via(g)
	names := make([]string, len(via))
	for i, n := range via {
		names[i] = g.Node(n).Name
	}
	return fmt.Sprintf("ch%d %s->%s -> detour via %v", dead,
		g.Node(ch.From).Name, g.Node(ch.To).Name, names)
}

// clone deep-copies the schedule (transfers, deps) sharing the immutable
// Graph/Nodes/Partition. Execution never mutates a schedule, so cached
// schedules are shared directly; clone exists for rewrites (repair,
// same-shape sibling patching).
func (s *Schedule) clone() *Schedule {
	out := &Schedule{
		Graph:     s.Graph,
		Nodes:     s.Nodes,
		Partition: s.Partition,
		InOrder:   s.InOrder,
		Streams:   s.Streams,
		Contract:  s.Contract,
		transfers: make([]*transfer, len(s.transfers)),
	}
	for i, t := range s.transfers {
		c := *t
		c.deps = append([]int(nil), t.deps...)
		out.transfers[i] = &c
	}
	return out
}

// splice rewires a stranded transfer t over multi-hop route rt: forwarding
// transfers for every hop but the last are appended (writing relay slots),
// and t itself becomes the final hop, reading the last relay. The appended
// transfers carry ids after t — normalizeMap restores topological id order.
func (s *Schedule) splice(t *transfer, rt topology.Route) {
	prevSrc := t.src
	prevDeps := append([]int(nil), t.deps...)
	var prevID int
	for h := 0; h < rt.Hops()-1; h++ {
		id := len(s.transfers)
		hop := &transfer{
			id:      id,
			chunk:   t.chunk,
			bytes:   t.bytes,
			channel: rt.Channels[h],
			deps:    prevDeps,
			src:     prevSrc,
			dst:     relayBuf(id),
			// Forwarding never reduces; accumulation happens at the final dst.
			accumulate: false,
			finalNode:  -1,
			label:      fmt.Sprintf("%s/hop%d", t.label, h+1),
		}
		s.transfers = append(s.transfers, hop)
		prevSrc = relayBuf(id)
		prevDeps = []int{id}
		prevID = id
	}
	t.channel = rt.Channels[rt.Hops()-1]
	t.src = relayBuf(prevID)
	// Keep t's original ordering edges (buffer hazards) and add the data
	// dependency on the last forwarding hop.
	t.deps = appendUnique(t.deps, prevID)
}

func appendUnique(deps []int, d int) []int {
	for _, x := range deps {
		if x == d {
			return deps
		}
	}
	return append(deps, d)
}

// normalizeMap renumbers transfers into topological id order (dependencies
// before dependents), rewriting ids, deps, and relay-slot references, and
// returns the renumbering: newID[old] is the id transfer old was assigned.
// Instantiate and the verifier both require id order to respect the DAG;
// splice violates it by appending hops that stranded transfers depend on.
// RepairSchedule threads the mapping into PatchReport.OldToNew so delta
// verification (schedcheck.CheckPatch) and checkpoint remapping can line
// the patched schedule up with its base.
func (s *Schedule) normalizeMap() ([]int, error) {
	order, err := s.topoOrder()
	if err != nil {
		return nil, err
	}
	newID := make([]int, len(s.transfers))
	for pos, old := range order {
		newID[old] = pos
	}
	remapBuf := func(r bufRef) bufRef {
		if r.relay >= 0 {
			r.relay = newID[r.relay]
		}
		return r
	}
	transfers := make([]*transfer, len(s.transfers))
	for _, t := range s.transfers {
		t.id = newID[t.id]
		for i, d := range t.deps {
			t.deps[i] = newID[d]
		}
		sort.Ints(t.deps)
		t.src = remapBuf(t.src)
		t.dst = remapBuf(t.dst)
		transfers[t.id] = t
	}
	s.transfers = transfers
	return newID, nil
}
