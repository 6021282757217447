package experiments

import (
	"sort"

	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// timeline is the bucketed observer behind the resilience and fleet
// figures: completions are bucketed by completion time, and a ticker at
// the END of each bucket samples a cumulative counter (shed or resteered
// requests) and an offline population (cores or nodes).
type timeline struct {
	bucket sim.Duration
	lats   [][]sim.Duration
	cum    []uint64
	off    []int
	ticks  int
}

// newTimeline arms a timeline of total/bucket buckets on eng; sample
// reads the cumulative counter and the offline population. The caller
// routes completions into record.
func newTimeline(eng *sim.Engine, total, bucket sim.Duration, sample func() (uint64, int)) *timeline {
	n := int(total / bucket)
	t := &timeline{
		bucket: bucket,
		lats:   make([][]sim.Duration, n),
		cum:    make([]uint64, n),
		off:    make([]int, n),
	}
	eng.Ticker(bucket, func() {
		if t.ticks < n {
			t.cum[t.ticks], t.off[t.ticks] = sample()
			t.ticks++
		}
	})
	return t
}

// record buckets one completion.
func (t *timeline) record(r *workload.Request) {
	if b := int(sim.Duration(r.Done) / t.bucket); b >= 0 && b < len(t.lats) {
		t.lats[b] = append(t.lats[b], r.Latency())
	}
}

// timelineBucket is one closed bucket: its start, completions, their
// P99, the counter's growth over the bucket, and the offline population
// at its end.
type timelineBucket struct {
	from    sim.Duration
	done    int
	p99     sim.Duration
	delta   uint64
	offline int
}

// buckets closes the timeline. final is the counter's end-of-run value,
// carried into the buckets the run ended before ticking.
func (t *timeline) buckets(final uint64) []timelineBucket {
	out := make([]timelineBucket, len(t.lats))
	var prev uint64
	for i := range out {
		cum := t.cum[i]
		if i >= t.ticks {
			cum = final
		}
		out[i] = timelineBucket{
			from:    sim.Duration(i) * t.bucket,
			done:    len(t.lats[i]),
			p99:     p99Of(t.lats[i]),
			delta:   cum - prev,
			offline: t.off[i],
		}
		prev = cum
	}
	return out
}

// p99Of returns the 99th-percentile of the sample (0 when empty). The
// input slice is sorted in place.
func p99Of(d []sim.Duration) sim.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	idx := (len(d)*99 + 99) / 100
	if idx >= len(d) {
		idx = len(d) - 1
	}
	return d[idx]
}
