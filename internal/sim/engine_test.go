package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(100, func() { fired++ })
	e.Schedule(200, func() { fired++ })
	e.Schedule(300, func() { fired++ })
	e.Run(200)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (horizon inclusive)", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("clock = %d, want horizon 200", e.Now())
	}
	e.Run(300)
	if fired != 3 {
		t.Fatalf("fired = %d after extending horizon, want 3", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel on pending event returned false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineScheduleInsideEvent(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(10, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() { trace = append(trace, e.Now()) })
	})
	e.RunAll()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested scheduling broken: %v", trace)
	}
}

func TestEngineZeroAndNegativeDelay(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		order := []int{}
		e.Schedule(0, func() { order = append(order, 1) })
		e.Schedule(-5, func() { order = append(order, 2) })
		e.Schedule(0, func() {
			if len(order) != 2 || order[0] != 1 || order[1] != 2 {
				t.Errorf("zero-delay ordering: %v", order)
			}
		})
	})
	e.RunAll()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Abort(nil) })
	e.Schedule(2, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Fatalf("Abort(nil) did not halt dispatch, fired=%d", fired)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Ticker(10, func() { ticks = append(ticks, e.Now()) })
	e.Run(35)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks at 10,20,30", ticks)
	}
	for i, tt := range ticks {
		if tt != Time(10*(i+1)) {
			t.Fatalf("tick %d at %d", i, tt)
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine clock never moves backwards.
func TestEventOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.RunAll()
		if len(fireTimes) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		// The fire times must be a permutation of the scheduled delays.
		want := make([]int, len(delays))
		got := make([]int, len(fireTimes))
		for i, d := range delays {
			want[i] = int(d)
		}
		for i, ft := range fireTimes {
			got[i] = int(ft)
		}
		sort.Ints(want)
		sort.Ints(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("Exp mean = %v, want ~100", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(50, 10)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-50) > 0.5 {
		t.Fatalf("Normal mean = %v, want ~50", mean)
	}
	if math.Abs(math.Sqrt(variance)-10) > 0.5 {
		t.Fatalf("Normal stdev = %v, want ~10", math.Sqrt(variance))
	}
}

func TestRNGBoundedParetoRange(t *testing.T) {
	r := NewRNG(11)
	p := NewBoundedPareto(1, 1000, 1.3)
	for i := 0; i < 100000; i++ {
		v := p.Sample(r)
		if v < 1-1e-9 || v > 1000+1e-9 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

// The sampler with its powers precomputed draws bit for bit what the
// per-draw formula draws, from the same stream, over 1M draws of the
// nginx profile's distribution and one with a heavier tail.
func TestBoundedParetoBitExact(t *testing.T) {
	for _, c := range []struct{ lo, hi, alpha float64 }{{0.4, 8, 1.5}, {1, 1000, 1.3}} {
		p := NewBoundedPareto(c.lo, c.hi, c.alpha)
		r, ref := NewRNG(7), NewRNG(7)
		for i := 0; i < 1_000_000; i++ {
			u := ref.Float64()
			la, ha := math.Pow(c.lo, c.alpha), math.Pow(c.hi, c.alpha)
			want := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/c.alpha)
			if got := p.Sample(r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v draw %d: %v (%#x), want %v (%#x)", c, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestRNGIntnProperty(t *testing.T) {
	r := NewRNG(5)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(123)
	c1 := parent.Fork()
	c2 := parent.Fork()
	equal := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("forked streams correlate: %d/64 equal draws", equal)
	}
}

func TestNormalDurClamp(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		d := r.NormalDur(10, 100, 5)
		if d < 5 {
			t.Fatalf("NormalDur below clamp: %d", d)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Duration(j%97), func() {})
		}
		e.RunAll()
	}
}

func TestEngineCancelEagerlyReaps(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 1) })
	ev := e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(30, func() { got = append(got, 3) })
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if !ev.Cancel() {
		t.Fatal("Cancel on pending event returned false")
	}
	// Eager reaping: the cancelled event leaves the queue immediately,
	// before any event fires.
	if e.Pending() != 2 {
		t.Fatalf("Pending after Cancel = %d, want 2 (eager removal)", e.Pending())
	}
	if ev.Pending() {
		t.Fatal("cancelled handle still reports Pending")
	}
	e.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("events after cancel: %v, want [1 3]", got)
	}
}

func TestEngineCancelReleasesClosure(t *testing.T) {
	// A long sweep that cancels timers must not hold their closures (and
	// whatever they capture) live until the original deadline: after
	// Cancel the record is recycled and its fn cleared.
	e := NewEngine()
	ev := e.Schedule(1_000_000, func() {})
	rec := ev.ev // white-box: the pooled record
	ev.Cancel()
	if rec.fn != nil {
		t.Fatal("cancelled event still holds its closure")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling the only event", e.Pending())
	}
}

func TestEventPoolReuseNoAliasing(t *testing.T) {
	e := NewEngine()

	// Case 1: stale handle from a cancelled event.
	ev1 := e.Schedule(10, func() { t.Error("cancelled event fired") })
	ev1.Cancel()
	fired := false
	ev2 := e.Schedule(20, func() { fired = true })
	if ev1.ev != ev2.ev {
		t.Fatal("free list did not recycle the cancelled record (white-box expectation)")
	}
	if ev1.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if !ev2.Pending() {
		t.Fatal("live event lost by stale Cancel")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}

	// Case 2: stale handle from a fired event.
	ev3 := e.Schedule(5, func() {})
	e.RunAll()
	fired = false
	ev4 := e.Schedule(5, func() { fired = true })
	if ev3.ev != ev4.ev {
		t.Fatal("free list did not recycle the fired record (white-box expectation)")
	}
	if ev3.Cancel() {
		t.Fatal("stale handle (fired event) cancelled a recycled event")
	}
	if ev3.Pending() {
		t.Fatal("stale handle reports Pending")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire after stale Cancel attempt")
	}
}

// Property: ordering and completeness hold under arbitrary interleaved
// cancellations — every non-cancelled event fires exactly once, in
// nondecreasing time order, and cancelled ones never fire.
func TestEngineCancelProperty(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		e := NewEngine()
		type sched struct {
			ev     Event
			cancel bool
			fired  bool
		}
		items := make([]*sched, len(delays))
		for i, d := range delays {
			it := &sched{}
			it.cancel = i < len(cancelMask) && cancelMask[i]
			it.ev = e.Schedule(Duration(d), func() { it.fired = true })
			items[i] = it
		}
		live := 0
		for _, it := range items {
			if it.cancel {
				it.ev.Cancel()
			} else {
				live++
			}
		}
		if e.Pending() != live {
			return false
		}
		e.RunAll()
		for _, it := range items {
			if it.fired == it.cancel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineScheduleFire measures the steady-state schedule+fire
// round trip. With the free-list pool warm it must not allocate.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i%7), fn)
	}
	e.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%97), fn)
		e.RunAll()
	}
}

// BenchmarkEngineCancel measures the schedule+cancel round trip (eager
// O(log n) heap removal) against a backlog of pending events.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// A standing backlog so removal exercises real sift work.
	for i := 0; i < 1024; i++ {
		e.Schedule(Duration(1000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(Duration(i%997), fn)
		if !ev.Cancel() {
			b.Fatal("cancel failed")
		}
	}
}

// TestPositionAndReservedSeqs pins the dispatch position and the
// reserved-seq primitive: inside a callback the position is the running
// event's (at, seq); after a Run that reached its horizon it is (horizon,
// next seq), so a reserved slot at exactly the horizon counts as
// dispatched; a reserved slot scheduled later fires where a ScheduleArg
// made at reservation time would have.
func TestPositionAndReservedSeqs(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(a any) { order = append(order, a.(string)) }
	base := e.Reserve(3) // slots at 10ns, 20ns, 20ns
	e.AtArg(20, rec, "after-block")
	e.AtArg(10, func(any) {
		if pt, ps := e.Position(); pt != 10 || ps != base+4 {
			t.Errorf("Position() in callback = (%d, %d), want (10, %d)", pt, ps, base+4)
		}
		order = append(order, "mid")
	}, nil)
	e.AtSeqArg(20, base+2, rec, "slot2")
	e.AtSeqArg(10, base, rec, "slot0")
	e.Run(15)
	if pt, ps := e.Position(); pt != 15 || ps != base+5 {
		t.Fatalf("Position() after Run(15) = (%d, %d), want (15, %d)", pt, ps, base+5)
	}
	e.Run(20)
	want := []string{"slot0", "mid", "slot2", "after-block"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
	// Slot 1 at 20ns is now behind the position (20, next seq).
	defer func() {
		if recover() == nil {
			t.Fatal("AtSeqArg behind the dispatch position did not panic")
		}
	}()
	e.AtSeqArg(20, base+1, rec, "slot1")
}

// TestFiredCountsElided pins the split between Fired and Dispatched: a
// registered elided-event count adds to Fired only.
func TestFiredCountsElided(t *testing.T) {
	e := NewEngine()
	var elided uint64
	e.AddElided(func() uint64 { return elided })
	e.Schedule(10, func() { elided += 2 })
	e.Schedule(20, func() {})
	e.RunAll()
	if e.Dispatched() != 2 || e.Fired() != 4 {
		t.Fatalf("dispatched %d (want 2), fired %d (want 4)", e.Dispatched(), e.Fired())
	}
}
