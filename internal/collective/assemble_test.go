package collective

import (
	"strings"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// assembleAllReduce2 hand-assembles the minimal two-node allreduce: reduce
// 0->1, root-ready marker, broadcast 1->0.
func assembleAllReduce2(g *topology.Graph) (*Unverified, error) {
	nodes := g.GPUs()
	up := g.ChannelsBetween(nodes[0], nodes[1])[0]
	down := g.ChannelsBetween(nodes[1], nodes[0])[0]
	return Assemble(AssembleSpec{
		Graph:     g,
		Nodes:     nodes,
		Partition: chunk.Split(1<<16, 1),
		InOrder:   true,
		Streams:   1,
		Contract:  ContractAllReduce,
		Ops: []OpSpec{
			{Label: "up", Channel: up, Chunk: 0, Bytes: 1 << 16,
				SrcNode: nodes[0], DstNode: nodes[1], Accumulate: true},
			{Label: "rootready", Channel: -1, Chunk: 0,
				HasFinal: true, Final: nodes[1], Deps: []int{0}},
			{Label: "down", Channel: down, Chunk: 0, Bytes: 1 << 16,
				SrcNode: nodes[1], DstNode: nodes[0],
				HasFinal: true, Final: nodes[0], Deps: []int{1}},
		},
	})
}

// verifiedAllReduce2 is assembleAllReduce2 through its Verify gate, the
// shape a cache builder returns.
func verifiedAllReduce2(g *topology.Graph) (*Schedule, error) {
	u, err := assembleAllReduce2(g)
	if err != nil {
		return nil, err
	}
	return u.Verify()
}

func TestAssembleMinimalAllReduce(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	u, err := assembleAllReduce2(g)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	s, err := u.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if s.BuiltFingerprint() != g.Fingerprint() {
		t.Error("Verify did not stamp the schedule against the current topology")
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("VerifyDeep: %v", err)
	}
	res, err := s.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Total <= 0 {
		t.Fatalf("Total = %s, want > 0", res.Total)
	}
	if !res.InOrder {
		t.Error("single-stream FIFO schedule lost its in-order proof")
	}
}

func TestAssembleRejectsMalformedSpecs(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	nodes := g.GPUs()
	ch := g.ChannelsBetween(nodes[0], nodes[1])[0]
	base := func() AssembleSpec {
		return AssembleSpec{
			Graph:     g,
			Nodes:     nodes,
			Partition: chunk.Split(1<<16, 1),
			Streams:   1,
			Contract:  ContractAllReduce,
		}
	}
	cases := []struct {
		name string
		ops  []OpSpec
	}{
		{"forward dep", []OpSpec{
			{Channel: ch, Bytes: 1, SrcNode: nodes[0], DstNode: nodes[1], Deps: []int{1}},
		}},
		{"self dep", []OpSpec{
			{Channel: ch, Bytes: 1, SrcNode: nodes[0], DstNode: nodes[1], Deps: []int{0}},
		}},
		{"chunk out of range", []OpSpec{
			{Channel: ch, Chunk: 3, Bytes: 1, SrcNode: nodes[0], DstNode: nodes[1]},
		}},
		{"relay forward reference", []OpSpec{
			{Channel: ch, Bytes: 1, FromRelay: true, SrcRelay: 0, DstNode: nodes[1]},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			spec.Ops = tc.ops
			if _, err := Assemble(spec); err == nil {
				t.Fatal("Assemble accepted a malformed spec")
			}
		})
	}
}

// Assemble itself is only an index-sanity boundary: a structurally sane but
// semantically wrong program (payload on a channel that does not connect its
// endpoints) assembles fine and is caught by Verify — which is why Assemble
// returns an Unverified schedule that cannot execute until Verify passes.
func TestAssembleIsUnverified(t *testing.T) {
	g := topology.FullyConnected(3, 10e9, 5*des.Microsecond)
	nodes := g.GPUs()
	wrong := g.ChannelsBetween(nodes[1], nodes[2])[0] // does not touch node 0
	u, err := Assemble(AssembleSpec{
		Graph:     g,
		Nodes:     nodes,
		Partition: chunk.Split(1<<16, 1),
		Streams:   1,
		Contract:  ContractAllReduce,
		Ops: []OpSpec{
			{Channel: wrong, Bytes: 1 << 16, SrcNode: nodes[0], DstNode: nodes[1]},
		},
	})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if _, err := u.Verify(); err == nil {
		t.Fatal("Verify accepted a payload on a channel that does not connect its endpoints")
	}
}

// TestCacheSynthKeySeparates: configs that differ only in SynthKey occupy
// distinct cache entries, and the same SynthKey hits.
func TestCacheSynthKeySeparates(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	c := NewCache()
	builds := 0
	builder := func() (*Schedule, error) {
		builds++
		return verifiedAllReduce2(g)
	}
	cfg := func(key string) Config {
		return Config{Graph: g, Algorithm: AlgSynth, Bytes: 1 << 16, SynthKey: key}
	}

	a, err := c.BuildWith(cfg("v1.a"), builder)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.BuildWith(cfg("v1.b"), builder)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2: distinct SynthKeys must not alias", builds)
	}
	if a == b {
		t.Fatal("distinct SynthKeys returned the same schedule object")
	}
	again, err := c.BuildWith(cfg("v1.a"), builder)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 || again != a {
		t.Fatalf("same SynthKey missed the cache (builds = %d)", builds)
	}
	if again.BuiltFingerprint() == 0 {
		t.Fatal("BuildWith schedule was not stamped against topology staleness")
	}
}

// TestCacheSynthSkipsSiblingPatch: a synth entry at one size must never be
// byte-rescaled into another size — the compiler's plan search is
// size-dependent, so the shape cannot be assumed to carry over.
func TestCacheSynthSkipsSiblingPatch(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()

	// Built-in baseline: sibling patching fires across sizes.
	if _, err := c.Build(cacheTestConfig(g)); err != nil {
		t.Fatal(err)
	}
	big := cacheTestConfig(g)
	big.Bytes = 2 << 20
	if _, err := c.Build(big); err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 1 {
		t.Fatalf("IncrementalBuilds = %d, want 1 for the built-in sibling", c.IncrementalBuilds())
	}

	// Synth: same shape change must go back through the builder.
	g2 := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	builds := 0
	builder := func() (*Schedule, error) {
		builds++
		return verifiedAllReduce2(g2)
	}
	for _, bytes := range []int64{1 << 16, 1 << 18} {
		if _, err := c.BuildWith(Config{
			Graph: g2, Algorithm: AlgSynth, Bytes: bytes, SynthKey: "v1.a",
		}, builder); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2: synth entries must not be sibling-patched", builds)
	}
	if c.IncrementalBuilds() != 1 {
		t.Fatalf("IncrementalBuilds = %d, want still 1 after synth builds", c.IncrementalBuilds())
	}
}

// TestStoreKeyIncludesSynth: the on-disk content address grows a /sy=
// component exactly when the key carries a synthesis fingerprint, keeping
// every pre-synth warm store valid.
func TestStoreKeyIncludesSynth(t *testing.T) {
	k := cacheKey{fp: 42, alg: AlgRing, bytes: 1 << 20, chunks: 8}
	plain := storeKey(k)
	if strings.Contains(plain, "/sy=") {
		t.Fatalf("built-in store key %q grew a synth component", plain)
	}
	k.synth = "v1.t4"
	withSynth := storeKey(k)
	if !strings.HasSuffix(withSynth, "/sy=v1.t4") {
		t.Fatalf("synth store key %q lacks the /sy= component", withSynth)
	}
	k.synth = "v1.t8"
	if other := storeKey(k); other == withSynth {
		t.Fatal("distinct synth fingerprints share a store key")
	}
}
