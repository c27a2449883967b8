package des

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// The batched drain (popRun/fireBatch) must be observationally identical to
// the per-event reference (step): same fired order, same clock at every
// callback, same final state, same metric totals — under scheduling from
// callbacks, cancellation of batch-mates, and mid-batch context aborts.

// batchSpec scripts one event deterministically, so the same workload can be
// replayed on independent engines.
type batchSpec struct {
	at     Time  // absolute time for roots, delay for spawned children
	spawns []int // spec ids this event schedules when it fires
	cancel int   // spec id this event cancels when it fires (-1 = none)
	abort  bool  // this event cancels the run's context when it fires
	dead   bool  // cancelled immediately after scheduling
	root   bool  // scheduled up front rather than by a parent
}

// randomBatchWorkload builds a spec set with heavy timestamp collisions: a
// handful of distinct times shared by many events is exactly the shape the
// batched drain exists for.
func randomBatchWorkload(rng *rand.Rand, withAbort bool) []batchSpec {
	n := rng.Intn(120) + 8
	specs := make([]batchSpec, n)
	spawned := make([]bool, n)
	for i := range specs {
		specs[i] = batchSpec{
			at:     Time(rng.Intn(7)), // few distinct times -> big runs
			cancel: -1,
			root:   true,
		}
	}
	// Parents may only spawn higher-numbered specs: acyclic by construction.
	for i := 0; i < n; i++ {
		for _, j := range rng.Perm(n) {
			if j > i && !spawned[j] && rng.Intn(4) == 0 {
				specs[i].spawns = append(specs[i].spawns, j)
				specs[j].root = false
				spawned[j] = true
			}
		}
		if rng.Intn(5) == 0 {
			specs[i].cancel = rng.Intn(n) // may target fired, dead, or same-batch events
		}
		if rng.Intn(10) == 0 {
			specs[i].dead = true
		}
	}
	if withAbort {
		specs[rng.Intn(n)].abort = true
	}
	return specs
}

// trace is what running a workload observes: the exact interleaving the two
// engines must agree on.
type trace struct {
	order []int  // spec ids in fire order
	times []Time // engine clock at each fire
	final Time
	fired int
	err   *CanceledError
}

// playWorkload schedules specs on e and drains it. useSerial selects the
// step-based reference loop over the production batched Run/RunCtx; abort
// events call cancel mid-run.
func playWorkload(e *Engine, specs []batchSpec, ctx context.Context, cancel context.CancelFunc, useSerial bool) trace {
	var tr trace
	handles := make([]Event, len(specs))
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			tr.order = append(tr.order, id)
			tr.times = append(tr.times, e.Now())
			sp := specs[id]
			for _, c := range sp.spawns {
				handles[c] = e.After(specs[c].at, fire(c))
				if specs[c].dead {
					handles[c].Cancel()
				}
			}
			if sp.cancel >= 0 {
				handles[sp.cancel].Cancel() // inert on fired or unscheduled targets
			}
			if sp.abort {
				cancel()
			}
		}
	}
	for id, sp := range specs {
		if sp.root {
			handles[id] = e.At(sp.at, fire(id))
			if sp.dead {
				handles[id].Cancel()
			}
		}
	}
	var final Time
	var err error
	if useSerial {
		final, err = runSerialRef(e, ctx)
	} else {
		final, err = e.RunCtx(ctx)
	}
	tr.final = final
	tr.fired = e.Fired()
	if err != nil {
		var ce *CanceledError
		if !errors.As(err, &ce) {
			panic("non-CanceledError from run")
		}
		tr.err = ce
	}
	return tr
}

// recycle is recycleQuiet with the per-event pool metric, for step.
func (e *Engine) recycle(ev *event) {
	mPoolRecycled.Inc()
	e.recycleQuiet(ev)
}

// step pops and executes a single event: the per-event reference the
// batched drain (popRun/fireBatch) is property-tested against.
func (e *Engine) step() {
	ev := e.pop()
	if ev.canceled {
		mEventsCancelled.Inc()
		e.recycle(ev)
		return
	}
	if ev.at < e.now {
		panic("des: event heap time went backwards")
	}
	e.now = ev.at
	e.fired++
	mEventsFired.Inc()
	fn := ev.fn
	e.recycle(ev)
	fn()
}

// runSerialRef replays the pre-batching engine loop: per-event pop via
// step() with a context checkpoint before each pop. It is the semantic
// reference the batched drain is tested against.
func runSerialRef(e *Engine, ctx context.Context) (Time, error) {
	done := ctx.Done()
	for len(e.events) > 0 {
		if done != nil {
			select {
			case <-done:
				return e.now, &CanceledError{At: e.now, Executed: e.fired,
					Remaining: len(e.events), Cause: context.Cause(ctx)}
			default:
			}
		}
		e.step()
	}
	return e.now, nil
}

func compareTraces(t *testing.T, iter int, serial, batched trace) {
	t.Helper()
	if len(serial.order) != len(batched.order) {
		t.Fatalf("iter %d: fired %d events serially, %d batched", iter, len(serial.order), len(batched.order))
	}
	for i := range serial.order {
		if serial.order[i] != batched.order[i] || serial.times[i] != batched.times[i] {
			t.Fatalf("iter %d: divergence at fire %d: serial (%d @%d) vs batched (%d @%d)",
				iter, i, serial.order[i], serial.times[i], batched.order[i], batched.times[i])
		}
	}
	if serial.final != batched.final || serial.fired != batched.fired {
		t.Fatalf("iter %d: final state diverges: serial (%v, %d) vs batched (%v, %d)",
			iter, serial.final, serial.fired, batched.final, batched.fired)
	}
	if (serial.err == nil) != (batched.err == nil) {
		t.Fatalf("iter %d: error mismatch: serial %v vs batched %v", iter, serial.err, batched.err)
	}
	if serial.err != nil {
		if serial.err.At != batched.err.At || serial.err.Executed != batched.err.Executed ||
			serial.err.Remaining != batched.err.Remaining {
			t.Fatalf("iter %d: CanceledError diverges: serial %+v vs batched %+v",
				iter, serial.err, batched.err)
		}
	}
}

// counterDeltas reports the engine counter movement across run.
func counterDeltas(run func()) [4]int64 {
	s0, f0 := mEventsScheduled.Value(), mEventsFired.Value()
	c0, r0 := mEventsCancelled.Value(), mPoolRecycled.Value()
	run()
	return [4]int64{mEventsScheduled.Value() - s0, mEventsFired.Value() - f0,
		mEventsCancelled.Value() - c0, mPoolRecycled.Value() - r0}
}

func TestBatchedDrainMatchesSerial(t *testing.T) {
	bg := context.Background()
	noop := context.CancelFunc(func() {})
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 300; iter++ {
		specs := randomBatchWorkload(rng, false)

		var serial, batched trace
		prod := NewEngine()
		dSerial := counterDeltas(func() {
			serial = playWorkload(NewEngine(), specs, bg, noop, true)
		})
		dBatched := counterDeltas(func() {
			batched = playWorkload(prod, specs, bg, noop, false)
		})
		compareTraces(t, iter, serial, batched)
		if dSerial != dBatched {
			t.Fatalf("iter %d: metric deltas diverge: serial %v vs batched %v (sched/fired/cancelled/recycled)",
				iter, dSerial, dBatched)
		}
		if prod.Pending() != 0 {
			t.Fatalf("iter %d: %d events left pending after Run", iter, prod.Pending())
		}
	}
}

func TestBatchedRunCtxMatchesSerialUnderCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 300; iter++ {
		specs := randomBatchWorkload(rng, true)

		refCtx, refCancel := context.WithCancel(context.Background())
		ref := NewEngine()
		serial := playWorkload(ref, specs, refCtx, refCancel, true)
		refCancel()

		prodCtx, prodCancel := context.WithCancel(context.Background())
		prod := NewEngine()
		batched := playWorkload(prod, specs, prodCtx, prodCancel, false)
		prodCancel()

		compareTraces(t, iter, serial, batched)
		if serial.err != nil {
			// An aborted batched run pushes the unfired remainder back into
			// the heap; both engines must hold identical pending sets. Drain
			// both with the plain Run and compare final clocks and totals.
			if sf, bf := ref.Run(), prod.Run(); sf != bf {
				t.Fatalf("iter %d: post-abort drain final time diverges: %v vs %v", iter, sf, bf)
			}
			if ref.Fired() != prod.Fired() {
				t.Fatalf("iter %d: post-abort drain fired count diverges: %d vs %d",
					iter, ref.Fired(), prod.Fired())
			}
		}
	}
}

// TestBatchedDrainZeroAllocSteadyState pins the batch path itself: a
// Reserve()d engine draining large equal-timestamp runs allocates nothing,
// from the first run on.
func TestBatchedDrainZeroAllocSteadyState(t *testing.T) {
	const n = 512
	e := NewEngine()
	e.Reserve(n)
	fn := func() {}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			e.At(e.Now()+Time(i%3), fn) // 3 distinct times -> runs of ~170
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("batched drain steady state: %v allocs/op, want 0", allocs)
	}
}
