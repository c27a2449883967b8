package ccube_test

// One benchmark per paper figure/table, plus ablations for the design
// choices DESIGN.md calls out. Each figure benchmark runs the corresponding
// experiment end to end and reports its headline metric through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// evaluation and records the measured values alongside the harness cost.

import (
	"context"
	"testing"

	"ccube/internal/autotune"
	"ccube/internal/collective"
	"ccube/internal/costmodel"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/experiments"
	"ccube/internal/gpusim"
	"ccube/internal/replay"
	"ccube/internal/scaleout"
	"ccube/internal/topology"
	"ccube/internal/train"
	"ccube/internal/workload"
)

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

func dgx1Low() *topology.Graph {
	cfg := topology.DefaultDGX1Config()
	cfg.LowBandwidth = true
	return topology.DGX1(cfg)
}

// BenchmarkFig1AllReduceRatio regenerates Fig. 1: the AllReduce share of
// iteration time across the MLPerf suite. Metric: the maximum fraction
// (paper: ~0.6 for SSD).
func BenchmarkFig1AllReduceRatio(b *testing.B) {
	var maxFrac float64
	for i := 0; i < b.N; i++ {
		ratios, err := workload.SuiteRatios(dgx1(), collective.AlgRing)
		if err != nil {
			b.Fatal(err)
		}
		maxFrac = 0
		for _, r := range ratios {
			if r.Fraction > maxFrac {
				maxFrac = r.Fraction
			}
		}
	}
	b.ReportMetric(maxFrac, "max-allreduce-fraction")
}

// BenchmarkFig3InvocationGranularity regenerates Fig. 3. Metric: the
// bandwidth loss factors of layer-wise and slicing vs one-shot (paper: ~2x
// and >4x).
func BenchmarkFig3InvocationGranularity(b *testing.B) {
	var lw, sl float64
	for i := 0; i < b.N; i++ {
		one, _, err := experiments.GranularityBandwidth(dgx1(), "one-shot")
		if err != nil {
			b.Fatal(err)
		}
		layer, _, err := experiments.GranularityBandwidth(dgx1(), "layer-wise")
		if err != nil {
			b.Fatal(err)
		}
		slice, _, err := experiments.GranularityBandwidth(dgx1(), "slicing")
		if err != nil {
			b.Fatal(err)
		}
		lw, sl = one/layer, one/slice
	}
	b.ReportMetric(lw, "layerwise-loss-x")
	b.ReportMetric(sl, "slicing-loss-x")
}

// BenchmarkFig4RingVsTreeModel regenerates Fig. 4's model grid. Metric: the
// ratio at the paper's crossover-interesting corner (P=1024, N=64MB).
func BenchmarkFig4RingVsTreeModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		p := experiments.Fig4Params()
		p.P = 1024
		p.N = 64 << 20
		ratio = costmodel.RingVsTreeRatio(p)
	}
	b.ReportMetric(ratio, "ring/tree-at-1024x64MB")
}

// BenchmarkFig12aOverlapSpeedup regenerates Fig. 12(a) at 64MB. Metric: the
// C1-over-B communication speedup (paper: ~1.75x).
func BenchmarkFig12aOverlapSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		base, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTree, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		over, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(base.Total) / float64(over.Total)
	}
	b.ReportMetric(speedup, "c1/b-speedup-64MB")
}

// BenchmarkFig12bModelAccuracy reports the relative error between the
// DES-measured C1/B speedup and the Eq. 6/Eq. 7 prediction at 64MB.
func BenchmarkFig12bModelAccuracy(b *testing.B) {
	var relErr float64
	for i := 0; i < b.N; i++ {
		base, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTree, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		over, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		measured := float64(base.Total) / float64(over.Total)
		p := costmodel.Params{
			Alpha: topology.NVLinkLatency.Seconds(),
			Beta:  1 / topology.NVLinkBandwidth,
			P:     8,
			N:     float64(64<<20) / 2,
		}
		model := costmodel.SpeedupOverlappedVsTree(p)
		relErr = (measured - model) / model
		if relErr < 0 {
			relErr = -relErr
		}
	}
	b.ReportMetric(relErr, "model-rel-err")
}

// BenchmarkFig13TrainingModes regenerates one representative Fig. 13 column
// (ResNet-50, batch 64, low bandwidth, all five modes). Metric: the CC-over-B
// speedup.
func BenchmarkFig13TrainingModes(b *testing.B) {
	var ccOverB float64
	for i := 0; i < b.N; i++ {
		results := map[train.Mode]*train.Result{}
		for _, m := range train.Modes() {
			res, err := train.Run(train.Config{
				Model: dnn.ResNet50(), Batch: 64, Graph: dgx1Low(), Mode: m})
			if err != nil {
				b.Fatal(err)
			}
			results[m] = res
		}
		ccOverB = float64(results[train.ModeB].IterTime) / float64(results[train.ModeCC].IterTime)
	}
	b.ReportMetric(ccOverB, "cc/b-speedup")
}

// BenchmarkFig14Scaleout regenerates a reduced Fig. 14 sweep (4-64 nodes).
// Metrics: the C1/ring ratio at (64 nodes, 16kB) and the 64MB turnaround
// speedup at 64 nodes.
func BenchmarkFig14Scaleout(b *testing.B) {
	var ratio, turnaround float64
	for i := 0; i < b.N; i++ {
		pts, err := scaleout.Run(scaleout.Config{
			NodeCounts: []int{4, 8, 16, 32, 64},
			Sizes:      []int64{16 << 10, 1 << 20, 64 << 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Nodes == 64 && p.Bytes == 16<<10 {
				ratio = p.OverlapVsRing()
			}
			if p.Nodes == 64 && p.Bytes == 64<<20 {
				turnaround = p.TurnaroundSpeedup()
			}
		}
	}
	b.ReportMetric(ratio, "c1/ring-64n-16kB")
	b.ReportMetric(turnaround, "turnaround-64n-64MB")
}

// BenchmarkFig15DetourOverhead regenerates Fig. 15. Metric: the detour-node
// performance loss (paper: 0.03-0.04).
func BenchmarkFig15DetourOverhead(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res, err := train.Run(train.Config{
			Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: train.ModeCC})
		if err != nil {
			b.Fatal(err)
		}
		var detour, other des.Time
		for g, t := range res.PerGPU {
			if g <= 1 && t > detour {
				detour = t
			}
			if g > 1 && t > other {
				other = t
			}
		}
		loss = float64(detour-other) / float64(detour)
	}
	b.ReportMetric(loss, "detour-loss")
}

// BenchmarkFig16Patterns regenerates Fig. 16. Metric: case 2's forward
// bubble time (case 1's is ~0).
func BenchmarkFig16Patterns(b *testing.B) {
	var bubbles float64
	for i := 0; i < b.N; i++ {
		res, err := train.Run(train.Config{
			Model: dnn.SyntheticPattern(dnn.Case2), Batch: 64, Graph: dgx1Low(),
			Mode: train.ModeCC, Chunks: 64})
		if err != nil {
			b.Fatal(err)
		}
		bubbles = res.Bubbles.Seconds()
	}
	b.ReportMetric(bubbles*1e3, "case2-bubbles-ms")
}

// BenchmarkFig17LayerProfile regenerates Fig. 17's underlying data. Metric:
// the late/early parameter ratio of ResNet-50 (must be >> 1).
func BenchmarkFig17LayerProfile(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := dnn.ResNet50()
		n := len(m.Layers)
		var early, late int64
		for _, l := range m.Layers[:n/4] {
			early += l.Params
		}
		for _, l := range m.Layers[3*n/4:] {
			late += l.Params
		}
		ratio = float64(late) / float64(early)
	}
	b.ReportMetric(ratio, "late/early-params")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationChunkCount compares the AllReduce at the Eq. 4 optimum
// against fixed chunk counts, reporting the penalty of the worst fixed
// choice.
func BenchmarkAblationChunkCount(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		opt, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, k := range []int{2, 8, 512} {
			res, err := collective.Run(collective.Config{
				Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap,
				Bytes: 64 << 20, Chunks: k})
			if err != nil {
				b.Fatal(err)
			}
			if r := float64(res.Total) / float64(opt.Total); r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst-fixed-k-penalty")
}

// BenchmarkAblationDetourVsPCIe compares one missing-edge hop via the
// NVLink detour against the host PCIe path (per 1MB chunk).
func BenchmarkAblationDetourVsPCIe(b *testing.B) {
	cfg := topology.DefaultDGX1Config()
	cfg.IncludePCIe = true
	gp := topology.DGX1(cfg)
	var ratio float64
	for i := 0; i < b.N; i++ {
		nv := gp.Channel(gp.ChannelsBetween(2, 0)[0])
		pcie := gp.Channel(gp.ChannelsBetween(2, 4)[0])
		detour := 2 * nv.TransferTime(1<<20)
		host := pcie.TransferTime(1 << 20)
		ratio = float64(host) / float64(detour)
	}
	b.ReportMetric(ratio, "pcie/detour-cost")
}

// BenchmarkAblationSingleVsDoubleTree compares the single overlapped tree
// (Fig. 6(c)) against the C-Cube double tree (Fig. 6(d)).
func BenchmarkAblationSingleVsDoubleTree(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		single, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgTreeOverlap, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		double, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(single.Total) / float64(double.Total)
	}
	b.ReportMetric(ratio, "single/double-time")
}

// BenchmarkAblationForwardVsBackwardOverlap compares C-Cube's forward
// chaining against DDP-style bucketed backward overlap (paper Fig. 2(b) vs
// (c), footnote 8).
func BenchmarkAblationForwardVsBackwardOverlap(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		ddp, err := train.RunBackwardOverlap(train.Config{
			Model: dnn.VGG16(), Batch: 32, Graph: dgx1Low()})
		if err != nil {
			b.Fatal(err)
		}
		cc, err := train.Run(train.Config{
			Model: dnn.VGG16(), Batch: 32, Graph: dgx1Low(), Mode: train.ModeCC})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(ddp.IterTime) / float64(cc.IterTime)
	}
	b.ReportMetric(speedup, "cc/ddp-speedup")
}

// --- Engine microbenchmarks ---

// BenchmarkDESCollective measures the simulator's own throughput: building
// and executing a 64MB C-Cube schedule.
func BenchmarkDESCollective(b *testing.B) {
	g := dgx1()
	for i := 0; i < b.N; i++ {
		if _, err := collective.Run(collective.Config{
			Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGpusimAllReduce measures the goroutine persistent-kernel
// emulation on 8 GPUs.
func BenchmarkGpusimAllReduce(b *testing.B) {
	t1, t2 := collective.DGX1Trees()
	inputs := make([][]float32, 8)
	for g := range inputs {
		inputs[g] = make([]float32, 1<<16)
		for j := range inputs[g] {
			inputs[g][j] = float32(g + j)
		}
	}
	cfg := gpusim.Config{
		Trees:   []collective.Tree{t1, t2},
		Detours: gpusim.DGX1Detours(),
		Chunks:  32,
		Overlap: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.AllReduce(inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainIteration measures one full training-iteration simulation.
func BenchmarkTrainIteration(b *testing.B) {
	g := dgx1()
	for i := 0; i < b.N; i++ {
		if _, err := train.Run(train.Config{
			Model: dnn.ResNet50(), Batch: 64, Graph: g, Mode: train.ModeCC}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ---

// BenchmarkExtHierarchicalChaining measures the multi-node composition:
// chained vs barriered hierarchical AllReduce over 4 boxes at 64MB.
func BenchmarkExtHierarchicalChaining(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		mn1, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(4))
		if err != nil {
			b.Fatal(err)
		}
		base, err := collective.RunHierarchical(collective.HierarchicalConfig{
			Cluster: mn1, Bytes: 64 << 20, Chained: false})
		if err != nil {
			b.Fatal(err)
		}
		mn2, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(4))
		if err != nil {
			b.Fatal(err)
		}
		chained, err := collective.RunHierarchical(collective.HierarchicalConfig{
			Cluster: mn2, Bytes: 64 << 20, Chained: true})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(base.Total) / float64(chained.Total)
	}
	b.ReportMetric(speedup, "chained/barriered-speedup")
}

// BenchmarkExtHalvingDoubling measures the third baseline at 64MB on the
// DGX-1 against the ring.
func BenchmarkExtHalvingDoubling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		hd, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgHalvingDoubling, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ring, err := collective.Run(collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgRing, Bytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(hd.Total) / float64(ring.Total)
	}
	b.ReportMetric(ratio, "hd/ring-time-64MB")
}

// BenchmarkExtAutotune measures the cost of a full algorithm-selection pass.
func BenchmarkExtAutotune(b *testing.B) {
	g := dgx1()
	for i := 0; i < b.N; i++ {
		if _, err := autotune.BestWith(context.Background(), g, 64<<20, autotune.Options{Objective: autotune.Latency}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtReplay measures trace replay of a one-shot ResNet-50 iteration.
func BenchmarkExtReplay(b *testing.B) {
	tr := replay.FromModel(dnn.ResNet50(), 64, dnn.V100())
	g := dgx1()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(tr, replay.Config{
			Graph: g, Algorithm: collective.AlgDoubleTreeOverlap}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGpusimHierarchical measures the multi-box persistent-kernel
// emulation (2 boxes, 16 goroutine GPUs).
func BenchmarkGpusimHierarchical(b *testing.B) {
	inputs := make([][]float32, 16)
	for g := range inputs {
		inputs[g] = make([]float32, 1<<14)
		for j := range inputs[g] {
			inputs[g][j] = float32(g + j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.AllReduceHierarchical(inputs, gpusim.HierConfig{
			Boxes: 2, Chunks: 16, Chained: true}); err != nil {
			b.Fatal(err)
		}
	}
}
