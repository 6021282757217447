package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// TestSteadyStateAllocsPerRequestZero is the allocation-discipline
// regression gate: once a run is warmed (pools at their high-water
// marks, rings and socket queues grown), driving the full
// workload→network→NIC→kernel→app→Tx→client path must not allocate at
// all — request and packet records recycle through the pools, events
// through the engine free list, and every per-request callback is a
// pre-bound function rather than a fresh closure.
func TestSteadyStateAllocsPerRequestZero(t *testing.T) {
	cfg := Config{
		Seed:     9,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   100 * sim.Millisecond,
		Duration: 200 * sim.Millisecond,
	}
	s := New(cfg, nil)
	res, _ := s.Run() // warm every pool and high-water mark
	if res.Completed == 0 {
		t.Fatal("warmup run completed no requests")
	}

	var total uint64
	for _, k := range s.Kernels {
		total += k.Counters().Completed
	}
	end := s.Eng.Now()
	const chunk = 20 * sim.Millisecond
	avg := testing.AllocsPerRun(10, func() {
		end += sim.Time(chunk)
		s.Eng.Run(end)
	})
	var after uint64
	for _, k := range s.Kernels {
		after += k.Counters().Completed
	}
	if after <= total {
		t.Fatalf("measured window completed no requests (%d -> %d)", total, after)
	}
	if avg != 0 {
		perReq := avg * 10 / float64(after-total)
		t.Fatalf("steady state allocates: %.1f allocs per 20ms chunk (~%.4f allocs/request, %d requests)",
			avg, perReq, after-total)
	}
}

// TestSteadyStateAllocsZeroWithAudit repeats the allocation gate with
// the invariant auditor enabled: every audit hook on the per-request
// path is a counter bump on pre-sized state, so watching a warmed run
// must still cost zero allocations per request.
func TestSteadyStateAllocsZeroWithAudit(t *testing.T) {
	cfg := Config{
		Seed:     9,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   100 * sim.Millisecond,
		Duration: 200 * sim.Millisecond,
		Audit:    true,
	}
	s := New(cfg, nil)
	res, _ := s.Run()
	if res.Completed == 0 {
		t.Fatal("warmup run completed no requests")
	}
	if res.Audit == nil || res.Audit.Failed() {
		t.Fatalf("audited warmup run not clean: %v", res.Audit)
	}

	var total uint64
	for _, k := range s.Kernels {
		total += k.Counters().Completed
	}
	end := s.Eng.Now()
	const chunk = 20 * sim.Millisecond
	avg := testing.AllocsPerRun(10, func() {
		end += sim.Time(chunk)
		s.Eng.Run(end)
	})
	var after uint64
	for _, k := range s.Kernels {
		after += k.Counters().Completed
	}
	if after <= total {
		t.Fatalf("measured window completed no requests (%d -> %d)", total, after)
	}
	if avg != 0 {
		perReq := avg * 10 / float64(after-total)
		t.Fatalf("audited steady state allocates: %.1f allocs per 20ms chunk (~%.4f allocs/request, %d requests)",
			avg, perReq, after-total)
	}
}

// TestPoolingPhysicsNeutral proves the allocation machinery (request and
// packet pools, generator batch pre-sampling) is invisible to the
// simulation: a seeded run with pooling and batching disabled must
// produce byte-identical Results.
func TestPoolingPhysicsNeutral(t *testing.T) {
	base := Config{
		Seed:     1234,
		Profile:  workload.Memcached(),
		Level:    workload.Medium,
		Warmup:   50 * sim.Millisecond,
		Duration: 100 * sim.Millisecond,
	}
	run := func(disable bool) []byte {
		cfg := base
		cfg.DisablePooling = disable
		res, _ := New(cfg, nil).Run()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pooled := run(false)
	unpooled := run(true)
	if !bytes.Equal(pooled, unpooled) {
		t.Fatalf("pooling changed the physics:\npooled:   %.400s\nunpooled: %.400s", pooled, unpooled)
	}
}

// TestPoolsBoundedByInFlight is the leak test: pooled records are
// created only when a pool runs dry, so the number of idle records can
// never exceed the peak number of requests simultaneously in flight
// (each in-flight request owns at most one packet record at a time).
func TestPoolsBoundedByInFlight(t *testing.T) {
	cfg := Config{
		Seed:     77,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   50 * sim.Millisecond,
		Duration: 200 * sim.Millisecond,
	}
	s := New(cfg, nil)
	var issued, done, peak int
	orig := s.Gen.Deliver
	s.Gen.Deliver = func(r *workload.Request) {
		issued++
		if fl := issued - done; fl > peak {
			peak = fl
		}
		orig(r)
	}
	s.AddRequestListener(listenFunc(func(*workload.Request) { done++ }))
	s.Run()
	if issued == 0 || done == 0 {
		t.Fatalf("no traffic flowed (issued=%d done=%d)", issued, done)
	}
	if got := s.reqPool.Size(); got > peak {
		t.Errorf("request pool holds %d records, peak in-flight was %d", got, peak)
	}
	if got := s.NIC.PacketPoolSize(); got > peak {
		t.Errorf("packet pool holds %d records, peak in-flight was %d", got, peak)
	}
}

// TestWarmupResponsesNeverCounted pins the measurement-window contract:
// responses completing during warmup must not land in the histogram,
// and the histogram must hold exactly the responses that completed
// after warmup ended.
func TestWarmupResponsesNeverCounted(t *testing.T) {
	cfg := Config{
		Seed:     5,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   100 * sim.Millisecond,
		Duration: 100 * sim.Millisecond,
	}
	s := New(cfg, nil)
	var inWarmup, total int
	s.AddRequestListener(listenFunc(func(r *workload.Request) {
		total++
		if r.Done < sim.Time(cfg.Warmup) {
			inWarmup++
		}
	}))
	res, _ := s.Run()
	if inWarmup == 0 {
		t.Fatal("no responses completed during warmup; test is vacuous")
	}
	if res.Summary.N != total-inWarmup {
		t.Fatalf("histogram has %d samples, want %d (%d total - %d in warmup)",
			res.Summary.N, total-inWarmup, total, inWarmup)
	}
}

// TestZeroWarmupCountsFromInstantZero is the regression for the old
// `measFrom > 0` sentinel, which silently recorded nothing when the
// measurement window legitimately started at instant 0.
func TestZeroWarmupCountsFromInstantZero(t *testing.T) {
	cfg := Config{
		Seed:     5,
		Profile:  workload.Memcached(),
		Level:    workload.Low,
		Warmup:   -1, // negative = genuinely zero (0 would pick the default)
		Duration: 100 * sim.Millisecond,
	}
	s := New(cfg, nil)
	if s.Cfg.Warmup != 0 {
		t.Fatalf("negative warmup should clamp to zero, got %v", s.Cfg.Warmup)
	}
	res, _ := s.Run()
	if res.Summary.N == 0 {
		t.Fatal("zero-warmup run recorded no responses (measFrom==0 sentinel bug)")
	}
}
