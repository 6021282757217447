package experiments

import (
	"slices"

	"nmapsim/internal/cluster"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// sampler is the one observer behind every figure time series: the
// trace figures (2, 7, 9), the latency scatters (3, 4, 10, 11), Fig 16,
// and the resilience and fleet timelines. One engine ticker at the end
// of each bucket takes a reading of counters the layers already keep;
// it settles no accounting and hooks no layer, so an observed run is
// byte-identical to the same run unobserved. Completions arrive as a
// request listener of the server or the fleet front end.
type sampler struct {
	bucket sim.Duration
	n      int // buckets in the run
	read   func(*reading)
	// at[k] is the reading at k·bucket: at[0] is taken when the sampler
	// is armed, at[k] by the tick that ends bucket k-1.
	at []reading
	// done and lat hold each completion inside the run, in completion
	// order: its completion time and its response time.
	done []sim.Time
	lat  []sim.Duration
}

// reading is one sample of the observed counters. Each figure fills the
// fields it plots and leaves the rest zero.
type reading struct {
	// The tracked core's cumulative NAPI packet, ksoftirqd-wake and
	// CC6-entry counts, and its P-state.
	pktIntr, pktPoll, ksWakes, cc6 uint64
	pstate                         int
	// count is a cumulative request ledger (shed or resteered
	// requests); offline is the offline population (cores or nodes).
	count   uint64
	offline int
}

// newSampler arms a sampler of total/bucket buckets on eng and
// subscribes it to src's completions; read fills one reading.
func newSampler(eng *sim.Engine, src interface{ AddRequestListener(server.RequestListener) },
	total, bucket sim.Duration, read func(*reading)) *sampler {
	n := int(total / bucket)
	s := &sampler{bucket: bucket, n: n, read: read, at: make([]reading, 1, n+1)}
	src.AddRequestListener(s)
	read(&s.at[0])
	eng.Ticker(bucket, func() {
		if len(s.at) <= n {
			s.at = append(s.at, reading{})
			read(&s.at[len(s.at)-1])
		}
	})
	return s
}

// sampleCore arms a 1ms sampler on the server's core over the whole
// run: the core's packet split, ksoftirqd wakes, CC6 entries and
// P-state, and every completion.
func sampleCore(s *server.Server, core int) *sampler {
	k, c := s.Kernels[core], s.Proc.Cores[core]
	return sampleServer(s, sim.Millisecond, func(r *reading) {
		kc := k.Counters()
		r.pktIntr, r.pktPoll, r.ksWakes = kc.PktIntr, kc.PktPoll, kc.KsoftirqdWakes
		r.cc6, r.pstate = uint64(c.CC6Entries()), c.PState()
	})
}

// sampleServer arms a sampler on s over its whole run.
func sampleServer(s *server.Server, bucket sim.Duration, read func(*reading)) *sampler {
	return newSampler(s.Eng, s, s.Cfg.Warmup+s.Cfg.Duration, bucket, read)
}

// sampleFleet arms a sampler on the fleet over its whole run: the
// router's resteers, the offline nodes, and every front-end completion.
func sampleFleet(cl *cluster.Cluster, total, bucket sim.Duration) *sampler {
	return newSampler(cl.Eng, cl, total, bucket, func(r *reading) {
		r.count, r.offline = cl.Accounting().Resteers, cl.OfflineNodes()
	})
}

// OnRequest keeps each completion that lands inside the run.
func (s *sampler) OnRequest(r *workload.Request) {
	if b := int(sim.Duration(r.Done) / s.bucket); r.Done != 0 && b < s.n {
		s.done = append(s.done, r.Done)
		s.lat = append(s.lat, r.Latency())
	}
}

// readings returns the n+1 readings of the run. A run cut short before
// its last tick is padded with a reading taken now, at the abort
// instant.
func (s *sampler) readings() []reading {
	for len(s.at) <= s.n {
		s.at = append(s.at, reading{})
		s.read(&s.at[len(s.at)-1])
	}
	return s.at
}

// series returns, for each bucket in [from, from+n), the growth of the
// counter f picks over the bucket.
func (s *sampler) series(from, n int, f func(*reading) uint64) []float64 {
	at := s.readings()
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(f(&at[from+i+1]) - f(&at[from+i]))
	}
	return out
}

// pstates returns the P-state in effect at the start of each bucket in
// [from, n).
func (s *sampler) pstates(from int) []float64 {
	at := s.readings()[from:s.n]
	out := make([]float64, len(at))
	for i := range at {
		out[i] = float64(at[i].pstate)
	}
	return out
}

// scatter returns the completions in [from, to) as latency (ms) against
// completion time.
func (s *sampler) scatter(from, to sim.Time) *stats.Scatter {
	out := &stats.Scatter{}
	for i, t := range s.done {
		if t >= from && t < to {
			out.Add(t, s.lat[i].Millis())
		}
	}
	return out
}

// p99Between returns the P99 response time of the completions in
// [from, to).
func (s *sampler) p99Between(from, to sim.Time) sim.Duration {
	var d []sim.Duration
	for i, t := range s.done {
		if t >= from && t < to {
			d = append(d, s.lat[i])
		}
	}
	return p99Of(d)
}

// TimelineBucket is one bucket of a resilience or fleet timeline.
type TimelineBucket struct {
	// FromMs is the bucket's start, in ms since the run began.
	FromMs int
	// Done is the number of completions in the bucket (front-end
	// completions for a fleet).
	Done int
	// P99 is the P99 response time of those completions (0 if none).
	P99 sim.Duration
	// Count is the growth of the figure's request ledger over the
	// bucket: requests the admission controller shed, or a fleet
	// router's resteers.
	Count uint64
	// Offline is the offline population at the bucket's end: cores, or
	// a fleet's nodes.
	Offline int
}

// timeline closes the sampler into its buckets.
func (s *sampler) timeline() []TimelineBucket {
	lats := make([][]sim.Duration, s.n)
	for i, t := range s.done {
		b := int(sim.Duration(t) / s.bucket)
		lats[b] = append(lats[b], s.lat[i])
	}
	at := s.readings()
	out := make([]TimelineBucket, s.n)
	for i := range out {
		out[i] = TimelineBucket{
			FromMs:  int(sim.Duration(i) * s.bucket / sim.Millisecond),
			Done:    len(lats[i]),
			P99:     p99Of(lats[i]),
			Count:   at[i+1].count - at[i].count,
			Offline: at[i+1].offline,
		}
	}
	return out
}

// p99Of returns the sample's P99 by stats.Hist's rank rule (0 when
// empty). The input slice is sorted in place.
func p99Of(d []sim.Duration) sim.Duration {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	return d[stats.RankIndex(0.99, len(d))]
}
