package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"syscall"
	"time"

	"ccube/internal/collective"
	"ccube/internal/scaleout"
	"ccube/internal/topology"
)

// Scale-out sweep shape: the Fig. 14 grid up to 64 nodes. At 128 nodes two
// workers verify two ~0.5 GB schedules at once, and the process's peak
// memory then swings by a quarter from pass to pass with GC timing.
var (
	sweepNodes = []int{16, 32, 64}
	sweepBase  = []int64{16 << 10, 1 << 20, 64 << 20}
)

const (
	sweepWorkers = 2
	// sweepPassSeconds is a cold pass's wall time on the reference box
	// (2 cores); --seconds / sweepPassSeconds passes are measured.
	sweepPassSeconds = 0.62
	sweepChunkBytes  = 256 << 10 // scaleout's default chunk size
)

// sweepSizes returns the seed's message sizes: each base size plus a seeded
// offset below a quarter of the size and below one chunk, so the chunk
// counts — and the work — equal the base sizes' while the simulated times
// differ from seed to seed.
func sweepSizes(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, len(sweepBase))
	for i, b := range sweepBase {
		step := min(b/64, 4096)
		out[i] = b + step*rng.Int63n(min(b/4, sweepChunkBytes)/step)
	}
	return out
}

func sweepPasses(seconds int) int {
	return max(3, int(float64(seconds)/sweepPassSeconds+0.5))
}

// buildSweepGraphs builds the fabric of every node count, as scaleout.Run
// does before its cells start.
func buildSweepGraphs() []*topology.Graph {
	gs := make([]*topology.Graph, len(sweepNodes))
	for i, p := range sweepNodes {
		gs[i] = topology.Hierarchy(topology.DefaultHierarchyConfig(p))
	}
	return gs
}

// sweepSetupChild is the child process whose start-up setup_s times: it
// builds the graphs and reports ready.
func sweepSetupChild() {
	buildSweepGraphs()
	fmt.Println("ready")
}

// sweepReport is what the measuring child sends its parent.
type sweepReport struct {
	PassSeconds []float64 `json:"pass_seconds"`
	Cells       int       `json:"cells"`
	PeakRSSMB   float64   `json:"peak_rss_mb"` // VmHWM over all passes
	SimUS       []float64 `json:"sim_us"`
	Err         string    `json:"err,omitempty"`
}

// sweepChild runs the warm-up pass and the measured passes, each from an
// empty schedule cache, checks the points, and reports as JSON on stdout.
func sweepChild(seed int64, seconds int) {
	rep := measureSweep(seed, sweepPasses(seconds))
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sweep report:", err)
		os.Exit(1)
	}
}

func measureSweep(seed int64, passes int) sweepReport {
	cfg := scaleout.Config{NodeCounts: sweepNodes, Sizes: sweepSizes(seed), Workers: sweepWorkers}
	var rep sweepReport
	var first []scaleout.Point
	for pass := 0; pass <= passes; pass++ { // pass 0 is the warm-up
		collective.DefaultCache.Clear()
		began := time.Now()
		pts, err := scaleout.Run(cfg)
		took := time.Since(began).Seconds()
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		if pass == 0 {
			first = pts
			if err := checkFig14(pts); err != nil {
				rep.Err = err.Error()
				return rep
			}
			continue
		}
		if !reflect.DeepEqual(pts, first) {
			rep.Err = fmt.Sprintf("pass %d points differ from the warm-up pass", pass)
			return rep
		}
		rep.PassSeconds = append(rep.PassSeconds, took)
		rep.Cells += len(pts)
	}
	for _, p := range first {
		for _, t := range []int64{int64(p.RingTime), int64(p.TreeTime), int64(p.OverlapTime)} {
			rep.SimUS = append(rep.SimUS, float64(t)/1e3)
		}
	}
	// The peak is taken over the warm-up and every measured pass.
	rss, err := vmHWMMB("self")
	if err != nil {
		rep.Err = err.Error()
	}
	rep.PeakRSSMB = rss
	return rep
}

// checkFig14 checks the points are sane and that the Fig. 14 shape holds at
// the largest size: the overlapped tree (C1) turns gradients around no later
// than the baseline double tree (B).
func checkFig14(pts []scaleout.Point) error {
	if len(pts) != len(sweepNodes)*len(sweepBase) {
		return fmt.Errorf("sweep returned %d points, want %d", len(pts), len(sweepNodes)*len(sweepBase))
	}
	for _, p := range pts {
		if p.RingTime <= 0 || p.TreeTime <= 0 || p.OverlapTime <= 0 || p.OverlapTurnaround <= 0 {
			return fmt.Errorf("P=%d N=%d: non-positive simulated time", p.Nodes, p.Bytes)
		}
		if p.Bytes >= sweepBase[len(sweepBase)-1] && p.OverlapTurnaround > p.TreeTurnaround {
			return fmt.Errorf("P=%d N=%d: C1 turnaround %v > B turnaround %v", p.Nodes, p.Bytes,
				p.OverlapTurnaround, p.TreeTurnaround)
		}
	}
	return nil
}

// runSweep measures the sweep end to end: setup_s over fresh child
// processes, then one measuring child whose VmHWM is the peak memory.
func runSweep(seed int64, seconds int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	setupChild := func() (float64, error) { return timeSetupChild(exe) }
	setups, err := timeSetups(nil, setupChild)
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-role", "sweep", "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("sweep child: %w", err)
	}
	var rep sweepReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return result{}, fmt.Errorf("sweep child report: %w", err)
	}
	if rep.Err != "" {
		return result{attempted: 1, failed: 1}, fmt.Errorf("sweep: %s", rep.Err)
	}
	if setups, err = timeSetups(setups, setupChild); err != nil {
		return result{}, err
	}
	cells := float64(len(sweepNodes) * len(sweepBase))
	passMS := make([]float64, len(rep.PassSeconds))
	for i, s := range rep.PassSeconds {
		passMS[i] = s * 1e3
	}
	fmt.Fprintf(os.Stderr, "scaleout-sweep: %d passes of %.0f cells, pass seconds %.3f\n",
		len(rep.PassSeconds), cells, rep.PassSeconds)
	return result{
		attempted: rep.Cells,
		metrics: []metric{
			{"setup_s", median(setups), "s"},
			{"throughput_per_s", float64(rep.Cells) / sum(rep.PassSeconds), "1/s"},
			{"latency_tail_ms", tail(passMS), "ms"},
			{"peak_rss_mb", rep.PeakRSSMB, "MB"},
			{"sim_allreduce_geomean_us", geomean(rep.SimUS), "us"},
		},
	}, nil
}

// timeSetupChild returns the seconds from exec to the child's "ready".
func timeSetupChild(exe string) (float64, error) {
	cmd := exec.Command(exe, "-role", "sweep-setup")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	took := time.Since(began).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("sweep setup child: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("sweep setup child said %q: %v", line, readErr)
	}
	return took, nil
}

// traceSweep replays the sweep in-process on one thread: each cell as a
// one-cell scaleout.Run, then decomposed into build, verify and execute of
// its three schedules; then one full two-worker pass for the busy share.
func traceSweep(seed int64) (result, *tracer, error) {
	t := newTracer()
	cal := calibrateSpanCost()
	began := time.Now()
	graphs := map[int]*topology.Graph{}
	for _, p := range sweepNodes {
		t.do("topology.build", -1, -1, func() {
			graphs[p] = topology.Hierarchy(topology.DefaultHierarchyConfig(p))
		})
	}
	var lt layerTotals
	var pts []scaleout.Point
	sizes := sweepSizes(seed)
	req := 0
	for _, p := range sweepNodes {
		for _, n := range sizes {
			collective.DefaultCache.Clear()
			var cellPts []scaleout.Point
			var err error
			cell := t.do("sweep.cell", req, -1, func() {
				cellPts, err = scaleout.Run(scaleout.Config{NodeCounts: []int{p}, Sizes: []int64{n}, Workers: 1})
			})
			if err != nil {
				return result{}, nil, err
			}
			pts = append(pts, cellPts...)
			lt.topLevel(t, cell)
			for _, cfg := range cellConfigs(graphs[p], p, n) {
				s, err := lt.buildVerify(t, req, cell, cfg)
				if err != nil {
					return result{}, nil, err
				}
				if err := lt.execute(context.Background(), t, req, cell, s); err != nil {
					return result{}, nil, err
				}
			}
			req++
		}
	}
	collective.DefaultCache.Clear()
	var fullErr error
	full := t.do("sweep.run", -1, -1, func() {
		var got []scaleout.Point
		got, fullErr = scaleout.Run(scaleout.Config{NodeCounts: sweepNodes, Sizes: sizes, Workers: sweepWorkers})
		if fullErr == nil && !reflect.DeepEqual(got, pts) {
			fullErr = fmt.Errorf("two-worker sweep points differ from the one-cell runs")
		}
	})
	collective.DefaultCache.Clear()
	if fullErr != nil {
		return result{}, nil, fullErr
	}
	if err := checkFig14(pts); err != nil {
		return result{}, nil, err
	}
	cellMS := t.byName("sweep.cell")
	lt.sweepCellP50 = median(cellMS)
	lt.sweepCellMax = maxOf(cellMS)
	lt.sweepBusy = ratio(sum(cellMS), t.spans[full].ms()*sweepWorkers)
	fmt.Fprintf(os.Stderr, "scaleout-sweep traced: %d cells in %.1fs\n", len(cellMS), time.Since(began).Seconds())
	return result{attempted: len(cellMS), metrics: lt.metrics(t, cal, time.Since(began))}, t, nil
}

// cellConfigs are the three collectives one scale-out cell runs, configured
// as scaleout configures them.
func cellConfigs(g *topology.Graph, p int, n int64) []collective.Config {
	k := int(n / sweepChunkBytes)
	k = max(2, min(k, collective.MaxAutoChunks))
	identity := make([]int, p)
	for i := range identity {
		identity[i] = i
	}
	return []collective.Config{
		{Graph: g, Algorithm: collective.AlgRing, Bytes: n, RingOrders: [][]int{identity, identity}},
		{Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: n, Chunks: k},
		{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: n, Chunks: k},
	}
}

func traceFile(workload string, seed int64) string {
	return fmt.Sprintf("%s/trace-%s-%d.jsonl", buildDir(), workload, seed)
}
