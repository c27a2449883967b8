package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"ccube/internal/autotune"
	"ccube/internal/collective"
	"ccube/internal/fault"
	"ccube/internal/metrics"
	"ccube/internal/server"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// graphSet builds each named fabric once, timing the builds as
// topology.build spans.
type graphSet struct {
	t      *tracer
	graphs map[string]*topology.Graph
}

func newGraphSet(t *tracer) *graphSet { return &graphSet{t: t, graphs: map[string]*topology.Graph{}} }

func (s *graphSet) get(name string) (*topology.Graph, error) {
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	g, err := s.fresh(name)
	if err == nil {
		s.graphs[name] = g
	}
	return g, err
}

// fresh builds a private graph (faulted runs mutate channel health).
func (s *graphSet) fresh(name string) (*topology.Graph, error) {
	if s.t == nil {
		return buildGraph(name)
	}
	var g *topology.Graph
	var err error
	s.t.do("topology.build", -1, -1, func() { g, err = buildGraph(name) })
	return g, err
}

// autotuneAlgs is the built-in candidate set autotune evaluates, in its order.
var autotuneAlgs = []collective.Algorithm{
	collective.AlgRing, collective.AlgHalvingDoubling, collective.AlgTree,
	collective.AlgTreeOverlap, collective.AlgDoubleTree, collective.AlgDoubleTreeOverlap,
}

// layerTotals accumulates the per-layer counts measured at the layer
// boundaries during a traced replay; span durations live in the tracer.
type layerTotals struct {
	computeNS int64 // top-level compute spans: the work the service did per request

	respHits, respMisses int
	hitMS, missMS        []float64
	serverSelfNS         int64

	cacheHits, cacheMisses, cachePatched, cacheEvictions uint64

	buildTransfers, verifyTransfers, execTransfers int64
	verifyAllocBytes                               uint64

	faultRuns, faultAttempts, faultRerouted, faultUnrepairable int

	iterMS   []float64 // one per distinct train request
	iterSeen map[string]bool

	sweepCellP50, sweepCellMax, sweepBusy float64
}

// topLevel adds a top-level compute span's duration to the compute total.
func (lt *layerTotals) topLevel(t *tracer, i int) {
	lt.computeNS += t.spans[i].End - t.spans[i].Start
}

// buildVerify builds cfg's schedule uncached and verifies it, as separate
// collective.build and schedcheck.verify spans.
func (lt *layerTotals) buildVerify(t *tracer, req, parent int, cfg collective.Config) (*collective.Schedule, error) {
	var s *collective.Schedule
	var err error
	t.do("collective.build", req, parent, func() { s, err = collective.Build(cfg) })
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.do("schedcheck.verify", req, parent, func() { err = s.Validate() })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	lt.buildTransfers += int64(s.NumTransfers())
	lt.verifyTransfers += int64(s.NumTransfers())
	lt.verifyAllocBytes += after.TotalAlloc - before.TotalAlloc
	return s, nil
}

// execute runs a schedule on the DES as a des.execute span; directly under a
// request root it is top-level compute, under another span a re-done piece.
func (lt *layerTotals) execute(ctx context.Context, t *tracer, req, parent int, s *collective.Schedule) error {
	var err error
	i := t.do("des.execute", req, parent, func() { _, err = s.ExecuteCtx(ctx) })
	if err == nil {
		lt.execTransfers += int64(s.NumTransfers())
	}
	if parent >= 0 && t.spans[parent].Name == "request" {
		lt.topLevel(t, i)
	}
	return err
}

// cacheBuild fetches cfg's schedule through the schedule cache as a
// top-level collective.cache_build span. A miss that the cache resolved by a
// full build is then re-done uncached, timing build and verification apart.
func (lt *layerTotals) cacheBuild(t *tracer, req, root int, cfg collective.Config) (*collective.Schedule, error) {
	_, m0 := collective.DefaultCache.Stats()
	p0 := collective.DefaultCache.IncrementalBuilds()
	var s *collective.Schedule
	var err error
	i := t.do("collective.cache_build", req, root, func() { s, err = collective.DefaultCache.Build(cfg) })
	lt.topLevel(t, i)
	if err != nil {
		return nil, err
	}
	_, m1 := collective.DefaultCache.Stats()
	if m1 > m0 && collective.DefaultCache.IncrementalBuilds() == p0 {
		if _, err := lt.buildVerify(t, req, i, cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// decomposeSynth re-runs the winning synthesis plan pass by pass.
func decomposeSynth(t *tracer, req, parent int, g *topology.Graph, bytes int64, rep synth.Report) error {
	nodes := g.GPUs()
	var forest *synth.Forest
	var err error
	t.do("synth.pack_forest", req, parent, func() {
		forest, err = synth.PackForest(g, nodes, synth.DefaultMaxTrees, 0, true)
	})
	if err != nil {
		return err
	}
	sub := &synth.Forest{Trees: forest.Trees[:min(max(rep.Trees, 1), len(forest.Trees))]}
	for _, tr := range sub.Trees {
		sub.Detours += tr.Detours
	}
	var prog *synth.Program
	t.do("synth.compile", req, parent, func() { prog, err = synth.Compile(g, nodes, bytes, sub, rep.Chunks) })
	if err != nil {
		return err
	}
	var s *collective.Schedule
	t.do("synth.lower", req, parent, func() { s, err = synth.Lower(prog) })
	if err != nil {
		return err
	}
	t.do("synth.validate", req, parent, func() { err = s.Validate() })
	return err
}

// reissue repeats a response-cache miss's computation through the library's
// public entry points on the replay's own graphs, whose schedule-cache
// entries mirror the server's.
func (lt *layerTotals) reissue(ctx context.Context, t *tracer, graphs *graphSet, req, root int, r *request) error {
	switch {
	case r.Plan != nil:
		g, err := graphs.get(r.Topo)
		if err != nil {
			return err
		}
		bytes := int64(r.Plan.Bytes)
		var scheds []*collective.Schedule
		for _, alg := range autotuneAlgs {
			s, err := lt.cacheBuild(t, req, root, collective.Config{Graph: g, Algorithm: alg, Bytes: bytes,
				AllowSharedChannels: r.Plan.AllowShared})
			if err == nil { // some built-ins cannot run on some fabrics, as in autotune
				scheds = append(scheds, s)
			}
		}
		if r.Plan.AllowSynth {
			var res *synth.Result
			i := t.do("synth.synthesize", req, root, func() { res, err = synth.Synthesize(ctx, g, bytes, synth.Options{}) })
			lt.topLevel(t, i)
			if err != nil {
				return err
			}
			if !res.Report.CacheHit {
				if err := decomposeSynth(t, req, i, g, bytes, res.Report); err != nil {
					return err
				}
			}
			scheds = append(scheds, res.Schedule)
		}
		i := t.do("autotune.select", req, root, func() {
			_, err = autotune.SelectWith(ctx, g, bytes, planOptions(r.Plan))
		})
		lt.topLevel(t, i)
		if err != nil {
			return err
		}
		for _, s := range scheds {
			if err := lt.execute(ctx, t, req, i, s); err != nil {
				return err
			}
		}
	case r.Sim != nil && r.Sim.Fault != "":
		g, err := graphs.fresh(r.Topo)
		if err != nil {
			return err
		}
		plan, err := fault.ParseSpec(g, r.Sim.Fault)
		if err != nil {
			return err
		}
		var rep *fault.RunReport
		i := t.do("fault.run", req, root, func() { _, rep, err = fault.RunCollectiveCtx(ctx, simConfig(g, r.Sim), plan) })
		lt.topLevel(t, i)
		lt.faultRuns++
		var unrep *collective.UnrepairableError
		if errors.As(err, &unrep) {
			lt.faultUnrepairable++
		}
		if err != nil {
			return err
		}
		lt.faultAttempts += rep.Attempts
		if rep.Rerouted() > 0 {
			lt.faultRerouted++
		}
		healthy, err := graphs.fresh(r.Topo)
		if err != nil {
			return err
		}
		if _, err := lt.buildVerify(t, req, i, simConfig(healthy, r.Sim)); err != nil {
			return err
		}
	case r.Sim != nil:
		g, err := graphs.get(r.Topo)
		if err != nil {
			return err
		}
		s, err := lt.cacheBuild(t, req, root, simConfig(g, r.Sim))
		if err != nil {
			return err
		}
		if err := lt.execute(ctx, t, req, root, s); err != nil {
			return err
		}
	default:
		g, err := graphs.get(r.Topo)
		if err != nil {
			return err
		}
		i := t.do("train.run", req, root, func() { _, err = runTrain(ctx, g, r.Train) })
		lt.topLevel(t, i)
		return err
	}
	return nil
}

// replayOne sends one request through the in-process handler as a
// server.handle span and, on a response-cache miss, re-issues its compute.
func (lt *layerTotals) replayOne(h http.Handler, t *tracer, graphs *graphSet, req int, r *request) error {
	root := t.begin("request", req, -1)
	defer t.end(root)
	h0, m0 := collective.DefaultCache.Stats()
	p0, e0 := collective.DefaultCache.IncrementalBuilds(), collective.DefaultCache.Evictions()
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
	sv := t.begin("server.handle", req, root)
	h.ServeHTTP(rec, hr)
	ms := t.end(sv)
	h1, m1 := collective.DefaultCache.Stats()
	lt.cacheHits += h1 - h0
	lt.cacheMisses += m1 - m0
	lt.cachePatched += collective.DefaultCache.IncrementalBuilds() - p0
	lt.cacheEvictions += collective.DefaultCache.Evictions() - e0
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.key(), rec.Code, rec.Body.String())
	}
	o, err := checkBody(r, rec.Body.Bytes())
	if err != nil {
		return err
	}
	if r.Train != nil && !lt.iterSeen[r.key()] {
		if lt.iterSeen == nil {
			lt.iterSeen = map[string]bool{}
		}
		lt.iterSeen[r.key()] = true
		lt.iterMS = append(lt.iterMS, float64(o.IterTimeNS)/1e6)
	}
	if rec.Header().Get("X-Cache") == "hit" {
		lt.respHits++
		lt.hitMS = append(lt.hitMS, ms)
		lt.serverSelfNS += t.spans[sv].End - t.spans[sv].Start
		return nil
	}
	lt.respMisses++
	lt.missMS = append(lt.missMS, ms)
	before := lt.computeNS
	if err := lt.reissue(context.Background(), t, graphs, req, root, r); err != nil {
		return fmt.Errorf("re-issue %s: %w", r.key(), err)
	}
	lt.serverSelfNS += max(0, t.spans[sv].End-t.spans[sv].Start-(lt.computeNS-before))
	return nil
}

// traceServe replays a serve workload in-process on one thread: the warm-up
// prefix untraced, then the first sp.traced requests of the measured stream
// (a fifth of them for a reference replay). A fixed count keeps every count
// and sum in the ledger a property of the seed, not of how fast the machine
// ran.
func traceServe(sp serveSpec, seed int64, seconds int, reference bool) (result, *tracer, error) {
	prefix, measured := sp.stream(seed, seconds)
	n := sp.traced
	if reference {
		n /= 5
	}
	measured = measured[:min(n, len(measured))]
	metrics.Default.Enable() // as ccube-serve does
	// The replay's own graphs key their own schedule-cache entries next to
	// the server's; doubling the bounds keeps both working sets resident as
	// they would be alone.
	collective.DefaultCache.SetCapacity(2 * collective.DefaultCacheCapacity)
	collective.DefaultCache.SetFaultedCapacity(2 * collective.DefaultFaultedCacheCapacity)
	h := server.New(server.Config{Workers: serveWorkers}).Handler()

	cal := calibrateSpanCost()
	t := newTracer()
	graphs := newGraphSet(t)
	var warm layerTotals
	warmTracer := newTracer()
	for i := range prefix {
		if err := warm.replayOne(h, warmTracer, graphs, i, &prefix[i]); err != nil {
			return result{}, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var lt layerTotals
	began := time.Now()
	for n := range measured {
		if err := lt.replayOne(h, t, graphs, n, &measured[n]); err != nil {
			return result{attempted: n + 1, failed: 1}, nil, err
		}
	}
	wall := time.Since(began)
	fmt.Fprintf(os.Stderr, "%s traced: %d measured requests in %.1fs\n", sp.name, len(measured), wall.Seconds())
	return result{attempted: len(measured), metrics: lt.metrics(t, cal, wall)}, t, nil
}

// workloads names every workload, in the order reference replays run.
var workloads = []string{"serve-zipf", "scaleout-sweep"}

// replay runs one workload's traced replay from an empty schedule cache.
func replay(workload string, seed int64, seconds int, reference bool) (result, *tracer, error) {
	collective.DefaultCache.Clear()
	defer collective.DefaultCache.Clear()
	if sp, ok := serveSpecs[workload]; ok {
		return traceServe(sp, seed, seconds, reference)
	}
	return traceSweep(seed)
}

// traceWorkload runs workload's traced replay, then shorter reference
// replays of the other workloads, so the purpose checks can compare the
// workloads' ledgers within one run. It reports the workload's own ledger
// and writes its spans.
func traceWorkload(workload string, seed int64, seconds int) (result, error) {
	res, t, err := replay(workload, seed, seconds, false)
	if err != nil {
		return res, err
	}
	ledgers := map[string][]metric{workload: res.metrics}
	for _, w := range workloads {
		if w == workload {
			continue
		}
		ref, _, err := replay(w, seed, seconds, true)
		if err != nil {
			return result{}, fmt.Errorf("reference replay of %s: %w", w, err)
		}
		ledgers[w] = ref.metrics
	}
	if err := checkPurpose(ledgers); err != nil {
		return result{}, err
	}
	return res, t.write(traceFile(workload, seed))
}

// minZipfRespHitShare is the response-hit share below which serve-zipf no
// longer exercises the response cache as its main tier.
const minZipfRespHitShare = 0.5

// checkPurpose confirms from the workloads' ledgers that each loads what it
// was chosen for: serve-zipf is mostly response hits and still synthesizes,
// the sweep never synthesizes and spends a larger share of its compute in
// verification than serve-zipf.
func checkPurpose(ledgers map[string][]metric) error {
	v := map[string]map[string]float64{}
	for w, ms := range ledgers {
		v[w] = map[string]float64{}
		for _, m := range ms {
			v[w][m.name] = m.value
		}
	}
	zipf, sweep := v["serve-zipf"], v["scaleout-sweep"]
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	const hit, synth, verify = "server.resp_hit_share", "synth.calls", "schedcheck.verify_share"
	check(zipf[hit] >= minZipfRespHitShare, "serve-zipf %s %.3f < %.2f", hit, zipf[hit], minZipfRespHitShare)
	check(zipf[synth] > 0, "serve-zipf made no synthesis calls")
	check(sweep[synth] == 0, "scaleout-sweep made %.0f synthesis calls, want 0", sweep[synth])
	check(sweep[verify] > zipf[verify], "scaleout-sweep %s %.3f <= serve-zipf's %.3f", verify, sweep[verify], zipf[verify])
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("a workload does not load what it is for: %w", err)
	}
	return nil
}

// calibrateSpanCost returns the nanoseconds one begin/end pair costs.
func calibrateSpanCost() float64 {
	const n = 100000
	t := newTracer()
	began := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", i, -1))
	}
	return float64(time.Since(began).Nanoseconds()) / n
}

// metrics renders the per-layer ledger. Every workload reports every name;
// a layer the workload does not load reports 0.
func (lt *layerTotals) metrics(t *tracer, spanNS float64, wall time.Duration) []metric {
	computeMS := float64(lt.computeNS) / 1e6
	build, verify, exec := t.byName("collective.build"), t.byName("schedcheck.verify"), t.byName("des.execute")
	selects, synths := t.byName("autotune.select"), t.byName("synth.synthesize")
	trains, faults := t.byName("train.run"), t.byName("fault.run")
	var rootSelf int64
	for i, self := range selfTimes(t.spans) {
		if t.spans[i].Name == "request" {
			rootSelf += self
		}
	}
	perTransfer := func(ms []float64, transfers int64) float64 { return ratio(sum(ms)*1e6, float64(transfers)) }
	lookups := float64(lt.cacheHits + lt.cacheMisses)
	return []metric{
		{"server.resp_hit_share", ratio(float64(lt.respHits), float64(lt.respHits+lt.respMisses)), "ratio"},
		{"server.hit_ms_p50", median(lt.hitMS), "ms"},
		{"server.hit_ms_p99", tail(lt.hitMS), "ms"},
		{"server.miss_ms_p50", median(lt.missMS), "ms"},
		{"server.miss_ms_p99", tail(lt.missMS), "ms"},
		{"server.self_ms_sum", float64(lt.serverSelfNS) / 1e6, "ms"},
		{"autotune.select_calls", float64(len(selects)), "count"},
		{"autotune.select_ms_p50", median(selects), "ms"},
		{"autotune.select_ms_sum", sum(selects), "ms"},
		{"collective.cache_hit_share", ratio(float64(lt.cacheHits), lookups), "ratio"},
		{"collective.patched_share", ratio(float64(lt.cachePatched), float64(lt.cacheMisses)), "ratio"},
		{"collective.cache_evictions", float64(lt.cacheEvictions), "count"},
		{"collective.build_calls", float64(len(build)), "count"},
		{"collective.build_ms_sum", sum(build), "ms"},
		{"collective.build_ms_p99", tail(build), "ms"},
		{"collective.transfers_sum", float64(lt.buildTransfers), "count"},
		{"schedcheck.verify_calls", float64(len(verify)), "count"},
		{"schedcheck.verify_ms_sum", sum(verify), "ms"},
		{"schedcheck.verify_ms_p99", tail(verify), "ms"},
		{"schedcheck.verify_ns_per_transfer", perTransfer(verify, lt.verifyTransfers), "ns"},
		{"schedcheck.verify_alloc_mb_sum", float64(lt.verifyAllocBytes) / (1 << 20), "MB"},
		{"schedcheck.verify_share", ratio(sum(verify), computeMS), "ratio"},
		{"synth.calls", float64(len(synths)), "count"},
		{"synth.synthesize_ms_p50", median(synths), "ms"},
		{"synth.synthesize_ms_sum", sum(synths), "ms"},
		{"synth.synthesize_share", ratio(sum(synths), computeMS), "ratio"},
		{"synth.pack_forest_ms_sum", sum(t.byName("synth.pack_forest")), "ms"},
		{"synth.compile_ms_sum", sum(t.byName("synth.compile")), "ms"},
		{"synth.lower_ms_sum", max(0, sum(t.byName("synth.lower"))-sum(t.byName("synth.validate"))), "ms"},
		{"synth.validate_ms_sum", sum(t.byName("synth.validate")), "ms"},
		{"des.execute_calls", float64(len(exec)), "count"},
		{"des.execute_ms_sum", sum(exec), "ms"},
		{"des.execute_ms_p50", median(exec), "ms"},
		{"des.ns_per_transfer", perTransfer(exec, lt.execTransfers), "ns"},
		{"train.run_calls", float64(len(trains)), "count"},
		{"train.run_ms_p50", median(trains), "ms"},
		{"train.run_ms_sum", sum(trains), "ms"},
		{"train.sim_iter_geomean_ms", geomean(lt.iterMS), "ms"},
		{"fault.run_calls", float64(len(faults)), "count"},
		{"fault.run_ms_p50", median(faults), "ms"},
		{"fault.attempts_mean", ratio(float64(lt.faultAttempts), float64(lt.faultRuns)), "count"},
		{"fault.rerouted_share", ratio(float64(lt.faultRerouted), float64(lt.faultRuns)), "ratio"},
		{"fault.unrepairable_count", float64(lt.faultUnrepairable), "count"},
		{"sweep.cell_ms_p50", lt.sweepCellP50, "ms"},
		{"sweep.cell_ms_max", lt.sweepCellMax, "ms"},
		{"sweep.busy_share", lt.sweepBusy, "ratio"},
		{"topology.build_ms_sum", sum(t.byName("topology.build")), "ms"},
		{"trace.compute_ms_sum", computeMS, "ms"},
		{"trace.span_ns", spanNS, "ns"},
		{"trace.overhead_share", ratio(spanNS*float64(len(t.spans)), float64(wall.Nanoseconds())), "ratio"},
		{"trace.harness_self_ms_sum", float64(rootSelf) / 1e6, "ms"},
	}
}
