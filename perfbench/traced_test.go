package main

import "testing"

// The purpose checks fail a traced run whose ledgers show a workload does
// not load what it is for.
func TestCheckPurpose(t *testing.T) {
	ledger := func(hit, verifyShare, synthCalls float64) []metric {
		return []metric{
			{"server.resp_hit_share", hit, "ratio"},
			{"schedcheck.verify_share", verifyShare, "ratio"},
			{"synth.calls", synthCalls, "count"},
		}
	}
	ledgers := func(zipf, sweep []metric) map[string][]metric {
		return map[string][]metric{"serve-zipf": zipf, "scaleout-sweep": sweep}
	}
	zipf, sweep := ledger(0.81, 0.02, 130), ledger(0, 0.6, 0)
	for _, c := range []struct {
		what    string
		ledgers map[string][]metric
		ok      bool
	}{
		{"as built", ledgers(zipf, sweep), true},
		{"zipf mostly misses", ledgers(ledger(0.4, 0.02, 130), sweep), false},
		{"zipf never synthesizes", ledgers(ledger(0.81, 0.02, 0), sweep), false},
		{"sweep synthesizes", ledgers(zipf, ledger(0, 0.6, 1)), false},
		{"zipf verifies more than the sweep", ledgers(ledger(0.81, 0.7, 130), sweep), false},
		// A faster verifier lowers every verify share; the order still holds.
		{"faster verifier", ledgers(ledger(0.81, 0.01, 130), ledger(0, 0.2, 0)), true},
	} {
		if err := checkPurpose(c.ledgers); (err == nil) != c.ok {
			t.Errorf("%s: checkPurpose = %v, want ok=%v", c.what, err, c.ok)
		}
	}
}
