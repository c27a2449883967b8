package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ccube/internal/server"
)

// shares returns each class's share of the stream.
func shares(stream []request, class func(*request) string) map[string]float64 {
	out := map[string]float64{}
	for i := range stream {
		out[class(&stream[i])] += 1 / float64(len(stream))
	}
	return out
}

func endpointOf(r *request) string { return r.Path }
func topologyOf(r *request) string { return r.Topo }

func tierShares(stream []request) map[string]float64 {
	t := tiers(stream, server.DefaultCacheSize, 0)
	n := float64(len(stream))
	return map[string]float64{"hit": float64(t.RespHit) / n, "sched": float64(t.SchedHit) / n, "build": float64(t.Build) / n}
}

func sameBytes(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

func within(t *testing.T, what string, a, b map[string]float64, tol float64) {
	t.Helper()
	for k := range a {
		if math.Abs(a[k]-b[k]) > tol {
			t.Errorf("%s share of %q: %.4f vs %.4f, want within %.2f", what, k, a[k], b[k], tol)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			t.Errorf("%s %q appears for one seed only", what, k)
		}
	}
}

// The same seed yields a byte-identical stream; another seed changes the
// requests but keeps the endpoint, topology and cache-tier mix within 1%.
func TestStreamsDeterministic(t *testing.T) {
	for name, sp := range serveSpecs {
		a1, m1 := sp.stream(11, 10)
		a2, m2 := sp.stream(11, 10)
		if !sameBytes(a1, a2) || !sameBytes(m1, m2) {
			t.Errorf("%s: same seed gave different streams", name)
		}
		_, other := sp.stream(12, 10)
		if sameBytes(m1, other) {
			t.Errorf("%s: seeds 11 and 12 gave the same stream", name)
		}
		within(t, name+" endpoint", shares(m1, endpointOf), shares(other, endpointOf), 0.01)
		within(t, name+" topology", shares(m1, topologyOf), shares(other, topologyOf), 0.01)
		full1 := append(append([]request(nil), a1...), m1...)
		p2, _ := sp.stream(12, 10)
		full2 := append(append([]request(nil), p2...), other...)
		within(t, name+" tier", tierShares(full1), tierShares(full2), 0.01)
	}
}

// serve-zipf has the three tiers its description promises: mostly response
// hits, then misses served from compiled schedules, then a small tail of
// compiles.
func TestZipfTierComposition(t *testing.T) {
	prefix, measured := serveSpecs["serve-zipf"].stream(3, 20)
	// The warm-up fills both caches first.
	tc := tiers(append(append([]request(nil), prefix...), measured...), server.DefaultCacheSize, len(prefix))
	n := float64(len(measured))
	hit, sched, build := float64(tc.RespHit)/n, float64(tc.SchedHit)/n, float64(tc.Build)/n
	t.Logf("serve-zipf measured tiers: response hit %.3f, schedule hit %.3f, build %.3f over %d requests", hit, sched, build, len(measured))
	if hit < 0.5 || hit > 0.9 {
		t.Errorf("response-hit share %.3f, want in [0.5, 0.9]", hit)
	}
	if sched < 0.05 {
		t.Errorf("schedule-hit share %.3f, want >= 0.05", sched)
	}
	if build <= 0 || build > 0.05 {
		t.Errorf("build share %.3f, want a small non-zero tail (<= 0.05)", build)
	}
	if u := len(zipfUniverse(3)); u < 3*server.DefaultCacheSize || u > 5*server.DefaultCacheSize {
		t.Errorf("universe has %d requests, want about 4x the %d-entry response cache", u, server.DefaultCacheSize)
	}
}

// Every generated request is one the service answers with 200: the whole
// serve-zipf universe for two seeds and every fault link with every faulted
// algorithm.
func TestGeneratedRequestsSucceed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about two thousand simulations")
	}
	h := server.New(server.Config{Workers: serveWorkers}).Handler()
	check := func(name string, reqs []request) {
		for i := range reqs {
			r := &reqs[i]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)))
			if rec.Code != http.StatusOK {
				t.Errorf("%s: %s: status %d: %s", name, r.key(), rec.Code, rec.Body.String())
				continue
			}
			if _, err := checkBody(r, rec.Body.Bytes()); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	for _, seed := range []int64{1, 2} {
		check("serve-zipf", zipfUniverse(seed))
	}
	// Seeds pick fault links freely, so every link with every faulted
	// algorithm must be repairable.
	var faulted []request
	for topo, pairs := range killPairs {
		for _, pair := range pairs {
			for _, alg := range faultAlgs {
				for _, chunks := range []int{0, 96} {
					faulted = append(faulted, newRequest(topo, "", server.SimulateRequest{Topology: topo,
						Algorithm: alg, Bytes: 8 << 20, Chunks: chunks, Fault: "kill:" + pair}))
				}
			}
		}
	}
	check("faulted", faulted)
}

// tierCounts classifies a stream the way the service's caches see it when
// requests arrive in order: a response-cache hit (LRU over request keys at
// the given capacity), a miss whose schedules were compiled by an earlier
// request of the same group, or a miss that compiles.
type tierCounts struct{ RespHit, SchedHit, Build int }

// tiers counts the tiers of stream[warm:]; the first warm requests only fill
// the caches.
func tiers(stream []request, capacity, warm int) tierCounts {
	lru := newKeyLRU(capacity)
	seen := map[string]bool{}
	var t tierCounts
	for i := range stream {
		r := &stream[i]
		var tier *int
		switch {
		case lru.touch(r.key()):
			tier = &t.RespHit
		case seen[r.Group] && (r.Sim == nil || r.Sim.Fault == ""): // faulted runs rebuild on a private fabric
			tier = &t.SchedHit
		default:
			tier = &t.Build
		}
		if i >= warm {
			*tier++
		}
		seen[r.Group] = true
	}
	return t
}

// keyLRU is a set of at most cap keys with least-recently-used eviction.
type keyLRU struct {
	cap   int
	clock int
	last  map[string]int
}

func newKeyLRU(capacity int) *keyLRU { return &keyLRU{cap: capacity, last: map[string]int{}} }

// touch records a use of k and reports whether k was present.
func (l *keyLRU) touch(k string) bool {
	l.clock++
	_, hit := l.last[k]
	l.last[k] = l.clock
	if len(l.last) > l.cap {
		oldK, oldT := "", l.clock+1
		for kk, t := range l.last {
			if t < oldT {
				oldK, oldT = kk, t
			}
		}
		delete(l.last, oldK)
	}
	return hit
}
