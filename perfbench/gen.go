package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"ccube/internal/des"
	"ccube/internal/server"
	"ccube/internal/topology"
)

// Endpoints of the planning service.
const (
	epPlan     = "/v1/plan"
	epSimulate = "/v1/simulate"
	epTrain    = "/v1/train"
)

// request is one generated service call. Body is the exact wire body; the
// typed copy drives the in-process re-computation in checks and traces.
type request struct {
	Path  string
	Body  []byte
	Topo  string
	Group string // requests with equal Group share their compiled schedules
	Plan  *server.PlanRequest
	Sim   *server.SimulateRequest
	Train *server.TrainRequest
}

// key is the request's identity for the response cache: bodies are rendered
// from structs, so equal requests have equal bodies.
func (r *request) key() string { return r.Path + " " + string(r.Body) }

func newRequest(topo, group string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	r := request{Body: body, Topo: topo, Group: group}
	switch x := v.(type) {
	case server.PlanRequest:
		r.Path, r.Plan = epPlan, &x
	case server.SimulateRequest:
		r.Path, r.Sim = epSimulate, &x
	case server.TrainRequest:
		r.Path, r.Train = epTrain, &x
	}
	return r
}

// buildGraph mirrors the service's topology names, so requests re-computed
// in-process see the same fabrics the server builds.
func buildGraph(name string) (*topology.Graph, error) {
	const (
		fcBandwidth   = 25e9
		fcLatency     = des.Microsecond
		irregularSeed = 1
	)
	size := func(prefix string) (int, error) {
		n, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
		if err != nil || n < 2 {
			return 0, fmt.Errorf("bad topology %q", name)
		}
		return n, nil
	}
	switch {
	case name == "dgx1":
		return topology.DGX1(topology.DefaultDGX1Config()), nil
	case name == "dgx1-low":
		cfg := topology.DefaultDGX1Config()
		cfg.LowBandwidth = true
		return topology.DGX1(cfg), nil
	case strings.HasPrefix(name, "cluster:"):
		n, err := size("cluster:")
		if err != nil {
			return nil, err
		}
		return topology.Hierarchy(topology.DefaultHierarchyConfig(n)), nil
	case strings.HasPrefix(name, "fc:"):
		n, err := size("fc:")
		if err != nil {
			return nil, err
		}
		return topology.FullyConnected(n, fcBandwidth, fcLatency), nil
	case strings.HasPrefix(name, "fcasym:"):
		n, err := size("fcasym:")
		if err != nil {
			return nil, err
		}
		return topology.AsymmetricFullyConnected(n, fcBandwidth, fcLatency, irregularSeed), nil
	case strings.HasPrefix(name, "rr:"):
		n, err := size("rr:")
		if err != nil {
			return nil, err
		}
		return topology.RandomRegular(n, 4, fcBandwidth, fcLatency, irregularSeed), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

var (
	builtinAlgs = []string{"ring", "tree", "tree-overlap", "double-tree", "ccube", "halving-doubling"}
	models      = []string{"zfnet", "vgg16", "resnet50", "bert-base"}
	trainModes  = []string{"B", "C1", "C2", "R", "CC", "DDP"}
	// killPairs are single links whose loss every faultAlgs schedule on that
	// fabric can repair around, so faulted requests still answer 200.
	killPairs = map[string][]string{
		"dgx1":       {"0-1", "2-3", "4-5", "6-7"},
		"dgx1-low":   {"0-1", "2-3", "4-5", "6-7"},
		"fc:8":       {"0-1", "2-5", "3-7", "4-6"},
		"fcasym:8":   {"0-1", "2-5", "3-7", "4-6"},
		"cluster:16": {"0-1", "2-3", "4-5", "8-9"},
		"cluster:32": {"0-1", "2-3", "4-5", "8-9"},
	}
	faultAlgs = []string{"ring", "tree", "double-tree", "ccube"}
)

// Shape of the serve-zipf key universe. Popularity ranks are assigned to
// slots by a fixed shuffle and drawn from a fixed Zipf sequence, so the
// endpoint, topology and cache-tier mix is the same for every seed; the seed
// chooses the concrete sizes, batches and fault links behind each slot.
const (
	zipfPlanGroups  = 3   // byte sizes per plan topology
	zipfSimSizes    = 3   // byte sizes per (topology, algorithm)
	zipfFaultGroups = 4   // faulted collectives per topology
	zipfBatches     = 6   // batch-size variants per (model, mode, topology)
	zipfS           = 1.1 // Zipf exponent
	zipfV           = 1.0 // Zipf offset
	// zipfShapeSeed fixes the rank pattern; it is not the workload seed.
	zipfShapeSeed = 0x5eed
)

var (
	zipfPlanTopos  = []string{"dgx1", "dgx1-low", "fc:8", "fcasym:8", "rr:16", "cluster:16", "cluster:32"}
	zipfSimTopos   = []string{"dgx1", "dgx1-low", "fc:8", "fcasym:8", "cluster:16", "cluster:32"}
	zipfTrainTopos = []string{"dgx1", "dgx1-low"}
)

// gridSizes returns n byte counts log-spaced over [lo, hi), each raised by a
// seeded factor below 1/16 and rounded to 4 KiB: the seed varies the sizes
// without moving the workload's overall size mix.
func gridSizes(rng *rand.Rand, n int, lo, hi float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		base := lo * math.Pow(hi/lo, (float64(i)+0.5)/float64(n))
		out[i] = int64(base*(1+rng.Float64()/16)) &^ 4095
	}
	return out
}

// zipfUniverse returns every serve-zipf request for the seed, in a fixed
// slot order (the order is independent of the seed).
func zipfUniverse(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	var u []request
	for _, topo := range zipfPlanTopos {
		sizes := gridSizes(rng, zipfPlanGroups, 64<<10, 64<<20)
		for gi, b := range sizes {
			group := fmt.Sprintf("plan/%s/%d", topo, gi)
			var variants []server.PlanRequest
			base := server.PlanRequest{Topology: topo, Bytes: server.ByteSize(b)}
			switch {
			case strings.HasPrefix(topo, "rr:"): // no built-in runs on rr
				for _, obj := range []string{"latency", "turnaround"} {
					v := base
					v.Objective, v.AllowSynth = obj, true
					variants = append(variants, v)
				}
			case strings.HasPrefix(topo, "cluster:"): // cluster plans rank the built-ins only
				for i, obj := range []string{"latency", "turnaround", "latency"} {
					v := base
					v.Objective, v.RequireInOrder = obj, i == 2
					variants = append(variants, v)
				}
			default:
				for _, synth := range []bool{false, true} {
					for _, obj := range []string{"latency", "turnaround"} {
						v := base
						v.Objective, v.AllowSynth = obj, synth
						variants = append(variants, v)
					}
				}
			}
			for _, v := range variants {
				u = append(u, newRequest(topo, group, v))
			}
		}
	}
	for _, topo := range zipfSimTopos {
		for _, alg := range builtinAlgs {
			for si, b := range gridSizes(rng, zipfSimSizes, 64<<10, 64<<20) {
				group := fmt.Sprintf("sim/%s/%s/%d", topo, alg, si)
				for _, top := range []int{0, 2, 4, 8, 16} {
					u = append(u, newRequest(topo, group, server.SimulateRequest{
						Topology: topo, Algorithm: alg, Bytes: server.ByteSize(b), TopChannels: top}))
				}
			}
		}
		pairs := killPairs[topo]
		for fi, b := range gridSizes(rng, zipfFaultGroups, 256<<10, 16<<20) {
			u = append(u, newRequest(topo, fmt.Sprintf("fault/%s/%d", topo, fi), server.SimulateRequest{
				Topology: topo, Algorithm: faultAlgs[fi%len(faultAlgs)], Bytes: server.ByteSize(b),
				Fault: "kill:" + pairs[rng.Intn(len(pairs))]}))
		}
	}
	for _, topo := range zipfTrainTopos {
		for _, m := range models {
			for _, mode := range trainModes {
				group := fmt.Sprintf("train/%s/%s/%s", topo, m, mode)
				for _, batch := range rng.Perm(64)[:zipfBatches] {
					u = append(u, newRequest(topo, group, server.TrainRequest{
						Topology: topo, Model: m, Batch: 8 + 4*batch, Mode: mode}))
				}
			}
		}
	}
	return u
}

// zipfStream returns n requests of the serve-zipf workload for the seed.
func zipfStream(seed int64, n int) []request {
	u := zipfUniverse(seed)
	shape := rand.New(rand.NewSource(zipfShapeSeed))
	rankToSlot := shape.Perm(len(u))
	z := rand.NewZipf(shape, zipfS, zipfV, uint64(len(u)-1))
	out := make([]request, n)
	for i := range out {
		out[i] = u[rankToSlot[z.Uint64()]]
	}
	return out
}
