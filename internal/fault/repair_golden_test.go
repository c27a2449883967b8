package fault_test

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/topology"
	"ccube/internal/train"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/repair_golden.json from the current code")

const goldenPath = "testdata/repair_golden.json"

// goldenTopos are the serve fabrics with faulted requests, each with the
// single links whose loss every goldenAlgs schedule can repair around.
var goldenTopos = []struct {
	name  string
	build func() *topology.Graph
	kills []string
}{
	{"dgx1", func() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) },
		[]string{"0-1", "2-3", "4-5", "6-7"}},
	{"dgx1-low", func() *topology.Graph {
		cfg := topology.DefaultDGX1Config()
		cfg.LowBandwidth = true
		return topology.DGX1(cfg)
	}, []string{"0-1", "2-3", "4-5", "6-7"}},
	{"fc:8", func() *topology.Graph { return topology.FullyConnected(8, 25e9, des.Microsecond) },
		[]string{"0-1", "2-5", "3-7", "4-6"}},
	{"fcasym:8", func() *topology.Graph { return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1) },
		[]string{"0-1", "2-5", "3-7", "4-6"}},
	{"cluster:16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) },
		[]string{"0-1", "2-3", "4-5", "8-9"}},
	{"cluster:32", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(32)) },
		[]string{"0-1", "2-3", "4-5", "8-9"}},
}

var (
	goldenAlgs = []collective.Algorithm{collective.AlgRing, collective.AlgTree,
		collective.AlgDoubleTree, collective.AlgDoubleTreeOverlap}
	goldenSizes = []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20}
	// goldenTimed arms each kill 20us into the collective, so the run dies
	// mid-flight and relaunches on a repaired schedule.
	goldenTimed = []string{"", "@20000"}
)

// goldenOutcome is one case's observable result. Faulted collectives record
// the makespan and a hash of ChunkDone; training iterations record the
// iteration, communication and per-GPU times.
type goldenOutcome struct {
	Total     int64  `json:"total,omitempty"`
	ChunkDone string `json:"chunk_done,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	Rerouted  int    `json:"rerouted,omitempty"`
	IterTime  int64  `json:"iter,omitempty"`
	CommTime  int64  `json:"comm,omitempty"`
	PerGPU    string `json:"per_gpu,omitempty"`
	Err       string `json:"err,omitempty"`
}

func hashTimes(ts []des.Time) string {
	h := fnv.New64a()
	for _, t := range ts {
		fmt.Fprintf(h, "%d,", int64(t))
	}
	return fmt.Sprintf("%d:%016x", len(ts), h.Sum64())
}

// errClass keeps goldens independent of error wording.
func errClass(err error) string {
	var ue *collective.UnrepairableError
	if errors.As(err, &ue) {
		return "unrepairable"
	}
	return "error"
}

// goldenCases runs the fault-repair grid: every kill × algorithm × size,
// static and timed, plus one CC training iteration per kill.
func goldenCases(t *testing.T) map[string]goldenOutcome {
	t.Helper()
	out := make(map[string]goldenOutcome)
	for _, topo := range goldenTopos {
		for _, kill := range topo.kills {
			for _, alg := range goldenAlgs {
				for _, bytes := range goldenSizes {
					for _, at := range goldenTimed {
						spec := "kill:" + kill + at
						g := topo.build()
						plan, err := fault.ParseSpec(g, spec)
						if err != nil {
							t.Fatalf("%s %s: %v", topo.name, spec, err)
						}
						key := fmt.Sprintf("%s/%s/%d/%s", topo.name, alg, bytes, spec)
						res, rep, err := fault.RunCollective(collective.Config{Graph: g, Algorithm: alg, Bytes: bytes}, plan)
						if err != nil {
							out[key] = goldenOutcome{Err: errClass(err)}
							continue
						}
						out[key] = goldenOutcome{Total: int64(res.Total), ChunkDone: hashTimes(res.ChunkDone),
							Attempts: rep.Attempts, Rerouted: rep.Rerouted()}
					}
				}
			}
			g := topo.build()
			plan, err := fault.ParseSpec(g, "kill:"+kill)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/train-CC/kill:%s", topo.name, kill)
			res, err := train.Run(train.Config{Model: dnn.ResNet50(), Batch: 32, Graph: g, Mode: train.ModeCC, Faults: plan})
			if err != nil {
				out[key] = goldenOutcome{Err: errClass(err)}
				continue
			}
			out[key] = goldenOutcome{IterTime: int64(res.IterTime), CommTime: int64(res.CommTime), PerGPU: hashTimes(res.PerGPU)}
		}
	}
	return out
}

// TestRepairGolden pins the repaired makespans, per-chunk completion times,
// launch attempts and reroutes of the fault-repair grid to a golden file,
// so a change to the repair path that moves any simulated time fails here.
// Regenerate with `go test ./internal/fault -run TestRepairGolden -update`.
func TestRepairGolden(t *testing.T) {
	got := goldenCases(t)
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// One case per line keeps diffs of the golden file readable.
		buf := []byte("{\n")
		for i, k := range keys {
			line, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			buf = fmt.Appendf(buf, "%q: %s", k, line)
			if i < len(keys)-1 {
				buf = append(buf, ',')
			}
			buf = append(buf, '\n')
		}
		buf = append(buf, "}\n"...)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenOutcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing", k)
		} else if g != w {
			t.Errorf("%s: got %+v, want %+v", k, g, w)
		}
	}
}

// repairAndCheck routes s off every down channel, passes the patch through
// its delta gate, and then holds the result to the full static verifier:
// CheckPatch must never accept a schedule the whole-program oracle rejects.
func repairAndCheck(t *testing.T, label string, s *collective.Schedule) *collective.Schedule {
	t.Helper()
	u, _, err := collective.RepairSchedule(s, s.DownChannels(), nil)
	if err != nil {
		t.Fatalf("%s: repair: %v", label, err)
	}
	out, err := u.Verify()
	if err != nil {
		t.Fatalf("%s: delta gate: %v", label, err)
	}
	if err := out.Verify(); err != nil {
		t.Fatalf("%s: delta gate accepted, full Verify rejects: %v", label, err)
	}
	return out
}

// TestRepairGoldenFullVerify replays the golden grid's repairs outside the
// run loop: the pre-launch repair of each static kill, and the relaunch
// sequence of each timed kill (every timed death promoted to dead in turn,
// the current schedule repaired after each). Every repaired schedule must
// pass full Verify as well as the delta gate it executed under.
func TestRepairGoldenFullVerify(t *testing.T) {
	for _, topo := range goldenTopos {
		for _, kill := range topo.kills {
			for _, alg := range goldenAlgs {
				for _, bytes := range goldenSizes {
					label := fmt.Sprintf("%s/%s/%d/kill:%s", topo.name, alg, bytes, kill)
					g := topo.build()
					s, err := collective.BuildCached(collective.Config{Graph: g, Algorithm: alg, Bytes: bytes})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					static, err := fault.ParseSpec(g, "kill:"+kill)
					if err != nil {
						t.Fatal(err)
					}
					revert := static.Apply(g)
					repairAndCheck(t, label+" pre-launch", s)
					revert()

					timed, err := fault.ParseSpec(g, "kill:"+kill+"@20000")
					if err != nil {
						t.Fatal(err)
					}
					cur := s
					for i, died := range timed.TimedDeaths() {
						g.KillChannel(died)
						cur = repairAndCheck(t, fmt.Sprintf("%s relaunch %d", label, i+1), cur)
					}
				}
			}
		}
	}
}
