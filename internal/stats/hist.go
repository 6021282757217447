// Package stats provides the measurement substrate: exact latency
// histograms with percentile/CDF queries, binned time series for the
// paper's Fig-2/7/9-style traces, and small summary helpers.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"nmapsim/internal/sim"
)

// Hist collects latency samples (nanoseconds) and answers percentile and
// CDF queries. It runs in one of two modes, fixed at construction:
//
//   - Exact (NewHist): every sample is kept, so every query is exact.
//     While every sample lies in [0, 2^32) ns (up to 4.29 s) a sample
//     splits into a key v>>16 and a 16-bit low half, and the key holds
//     its low halves in one of two forms. A paged key writes each low
//     half, 2 bytes, into its open page of histPage slots; pages are cut
//     in the order they open from one arena preallocated from the
//     capacity hint. A key turns counted once it holds countPages full
//     pages (32,768 samples, 64 KB): its samples are folded once into
//     a table of one 1-byte count per nanosecond, which takes over
//     those same 64 KB, and every later sample of the key is one
//     counter increment. A counted key's store stays its 64 KB (plus a
//     2-byte carry per 256 samples of one nanosecond) whatever its N,
//     and never more than it held paged. Recording is O(1) and
//     allocates only a small descriptor when a key turns counted, when
//     the pages outgrow the hint, and when a key's carries outgrow the
//     128 (32,768 samples) its descriptor holds and then each time they
//     double. The first sample outside
//     [0, 2^32) copies the store once into 8-byte words, and the
//     recorder stays wide from then on, through Reset too. Sorting
//     happens lazily on the first query and is memoized: the pages are
//     permuted in place into key order, each paged key's run of low
//     halves is radix-sorted in place (slices.Sort once widened), and
//     each counted key's table is summed into per-block cumulative
//     counts with no sort at all, so a Summarize (five quantiles plus
//     Max) pays for one sort and repeated queries on an unchanged
//     histogram are index math. Min, max and the running sum are
//     tracked incrementally at Add time, so Max() never forces a sort.
//
//   - Streaming (NewStreamingHist): samples land in a fixed 16K-bucket
//     log-linear histogram (HdrHistogram-style: 1ns-exact below 1µs, 512
//     sub-buckets per power of two above). Add is pure integer math —
//     O(1), zero allocation, zero growth — and the footprint is a flat
//     64KB no matter how many samples arrive, which is what a
//     million-request sweep cell wants. Quantiles report the midpoint of
//     a ≤2⁻⁹-wide bucket: relative error ≤0.2% worst case, ~0.1%
//     typical. Count, sum (hence Mean), min and max stay exact.
//
// The exact mode is the default everywhere and answers every query as
// the pre-streaming recorder did whatever its store; streaming is opt-in
// for sweeps that don't need exact bytes (see server.Config.StreamingHist).
// Both modes survive a checkpoint-journal round trip through
// MarshalJSON/UnmarshalJSON with full fidelity for their mode: a resumed
// sweep computes identical results from the journal whichever recorder
// produced it.
type Hist struct {
	// The keyed store, in use while every sample lies in [0, 2^32):
	// lows is the arena of low halves, cut into pages of histPage slots;
	// pageKey[p] is the key of page p; dir[k] routes key k's samples to
	// its open page or its count table. All are nil in streaming mode,
	// once wide, and in a zero Hist, which marshals as null. dir has at
	// most 2^16 entries, so one bounds check on a sample's key also
	// range-checks the sample (a negative one wraps above 2^32) and
	// routes a wide, streaming or zero recorder to addSlow.
	lows    []uint16
	pageKey []uint16
	dir     []keyDir
	// spare holds the count table descriptors Reset took from their keys,
	// for the next keys that turn counted.
	spare []*countTable
	// runs locates each key's sorted samples; valid while sorted.
	runs []keyRun
	// wide holds every sample once one falls outside [0, 2^32); its
	// capacity is the hint's.
	wide   []int64
	hint   int
	counts []uint32
	n      uint64
	sorted bool
	sum    float64
	min    int64 // valid when n > 0
	max    int64
}

// histPage is the number of low halves in one page of the paged store:
// each key holds at most one partly filled page, so the slack is under
// 2·histPage bytes per key in use.
const histPage = 256

// keyDir is one key's directory entry in the keyed store.
type keyDir struct {
	// w is the arena slot the key's next low half goes to, a multiple
	// of histPage when the key has no page with room left. No key holds
	// more than countPages pages, so the arena stays within 2^31 slots
	// (4 GB) and a slot fits 32 bits.
	w uint32
	// pages is the number of pages the key holds.
	pages uint32
	// tab describes the key's count table once it has turned counted;
	// w is 0 then.
	tab *countTable
}

// countPages is the number of full pages at which a key turns counted:
// they hold 32,768 2-byte low halves, the 64 KB that 65,536 1-byte
// counts take.
const countPages = 128

// countTable describes a counted key's store: the number of its samples
// at each of its 65,536 nanoseconds, modulo 256, in the key's own
// countPages pages of the arena, with one carry for each time a count
// wraps past 255. Page pg[j] holds the counts of nanoseconds
// [512j, 512j+512), two to a slot: nanosecond lo's count is the low byte
// of slot lo%512/2 when lo is even, the high byte when it is odd.
type countTable struct {
	// carry holds the low half of every wrap, each worth 256 samples;
	// sorted while the recorder is sorted.
	carry []uint16
	pg    [countPages]uint32
	// cum[b] is the number of samples in the blocks of 256 nanoseconds
	// below block b, and cum[256] the key's count; valid while sorted.
	cum [257]int
	// buf backs carry until it outgrows it: the fold of countPages full
	// pages wraps at most this many times.
	buf [countPages * histPage / 256]uint16
}

// histSlackKeys is how many keys' open pages NewHist preallocates beyond
// the hint, and how many keys its directory starts with: samples below
// 2^20 ns (1.05 ms), mc-high's whole range, record allocation-free
// within the hint.
const histSlackKeys = 16

// keyRun is one key's samples in the sorted keyed store, ranked from
// cum: the low halves in lows[start:end] of a paged key, or the ranks
// [start, end) = [0, count) of a counted key's table tab.
type keyRun struct {
	key             int64
	tab             *countTable
	start, end, cum int
}

// Streaming-mode geometry: values below 2^subBits count in 1ns-wide
// buckets (exact); each power-of-two range above is split into
// 2^(subBits-1) sub-buckets, so a bucket is never wider than 2^(1-subBits)
// of the values in it. 30 log segments cover 1ns..2^40ns (~18 minutes);
// anything larger clamps into the last bucket (Max stays exact).
const (
	streamSubBits  = 10
	streamSegments = 30
	streamBuckets  = 1<<streamSubBits + streamSegments<<(streamSubBits-1) // 16384
	// StreamRelError is the documented worst-case relative error of a
	// streaming-mode quantile: half a bucket width around the reported
	// midpoint, 2^-10 ≈ 0.098%, which rounds up to ≤0.1% for values on a
	// bucket edge below 2^40ns. (The full-bucket bound is 2^-9 ≈ 0.2%;
	// midpoint reporting halves it.)
	StreamRelError = 1.0 / (1 << (streamSubBits - 1)) // full bucket width: 0.195%
)

// NewHist returns an empty exact-mode histogram with the given capacity
// hint. Size the hint from the run horizon (expected samples over the
// measured window) so steady-state recording never grows the store.
func NewHist(capacity int) *Hist {
	capacity = max(capacity, 0)
	pages := (capacity+histPage-1)/histPage + histSlackKeys
	return &Hist{
		lows:    make([]uint16, 0, pages*histPage),
		pageKey: make([]uint16, 0, pages),
		dir:     make([]keyDir, histSlackKeys),
		hint:    capacity,
	}
}

// NewStreamingHist returns an empty streaming-mode histogram: fixed
// 64KB footprint, O(1) zero-allocation Add, quantiles within
// StreamRelError.
func NewStreamingHist() *Hist {
	return &Hist{counts: make([]uint32, streamBuckets)}
}

// Streaming reports whether the histogram is a bounded streaming-quantile
// recorder rather than an exact one.
func (h *Hist) Streaming() bool { return h.counts != nil }

// streamBucketOf maps a non-negative value to its bucket index.
func streamBucketOf(v int64) int {
	if v < 1<<streamSubBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - streamSubBits // ≥ 1
	if e > streamSegments {
		e = streamSegments
		return streamBuckets - 1
	}
	// v>>e lies in [2^(subBits-1), 2^subBits); segment e starts at
	// 2^subBits + (e-1)·2^(subBits-1).
	return 1<<streamSubBits + (e-1)<<(streamSubBits-1) + int(v>>uint(e)) - 1<<(streamSubBits-1)
}

// streamBucketBounds returns the [lo, hi) value range of bucket idx.
func streamBucketBounds(idx int) (lo, hi int64) {
	if idx < 1<<streamSubBits {
		return int64(idx), int64(idx) + 1
	}
	seg := (idx-1<<streamSubBits)>>(streamSubBits-1) + 1
	off := int64(idx - 1<<streamSubBits - (seg-1)<<(streamSubBits-1))
	lo = (1<<(streamSubBits-1) + off) << uint(seg)
	return lo, lo + 1<<uint(seg)
}

// Add records one latency sample. O(1) in both modes; in exact mode the
// running sum is accumulated in arrival order (so Mean is bit-identical
// to the pre-streaming recorder), and min/max are tracked incrementally
// so no query ever sorts just to find an extreme.
func (h *Hist) Add(d sim.Duration) {
	v := int64(d)
	if h.n == 0 {
		h.min, h.max = v, v
	} else if v < h.min {
		h.min = v
	} else if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
	h.sorted = false
	if dir, k := h.dir, uint64(v)>>16; k < uint64(len(dir)) {
		e := &dir[k]
		if w := e.w; w%histPage != 0 {
			h.lows[w] = uint16(v)
			e.w = w + 1
			return
		}
		if t := e.tab; t != nil {
			h.addCounted(t, uint16(v))
			return
		}
	}
	h.addSlow(v)
}

// addCounted counts one sample at nanosecond lo of t's key.
func (h *Hist) addCounted(t *countTable, lo uint16) {
	i, sh := t.slot(lo)
	if x := h.lows[i]; x>>sh&0xff != 0xff {
		h.lows[i] = x + 1<<sh
	} else {
		h.lows[i] = x &^ (0xff << sh)
		t.carry = append(t.carry, lo)
	}
}

// slot returns the arena slot that holds nanosecond lo's count and the
// shift of its byte in the slot.
func (t *countTable) slot(lo uint16) (int, uint16) {
	return int(t.pg[lo>>9])*histPage | int(lo&511)>>1, lo & 1 << 3
}

// addSlow records a sample the open pages and count tables do not take:
// into the streaming buckets, into the wide store, or into a fresh page
// of the keyed store, which a zero Hist begins here.
func (h *Hist) addSlow(v int64) {
	switch {
	case h.counts != nil:
		h.counts[streamBucketOf(max(v, 0))]++
		return
	case h.wide == nil && uint64(v) <= math.MaxUint32:
		h.openPage(uint32(v))
		return
	case h.wide == nil:
		h.widen()
	}
	h.wide = append(h.wide, v)
}

// openPage writes v's low half into a page cut for its key from the end
// of the arena, growing the directory to the key if need be; a key with
// countPages full pages turns counted instead.
func (h *Hist) openPage(v uint32) {
	k := int(v >> 16)
	if k >= len(h.dir) {
		h.dir = append(h.dir, make([]keyDir, k+1-len(h.dir))...)
	}
	e := &h.dir[k]
	if e.pages == countPages {
		h.countKey(k)
		h.addCounted(e.tab, uint16(v))
		return
	}
	p := len(h.lows)
	h.lows = slices.Grow(h.lows, histPage)[:p+histPage]
	h.lows[p] = uint16(v)
	h.pageKey = append(h.pageKey, uint16(k))
	e.w = uint32(p + 1)
	e.pages++
}

// countKey turns key k counted: it takes a spare descriptor, or
// allocates one, and folds the key's samples into counts that it writes
// over them. The counts gather in 64 KB on the stack first, since every
// sample must be read before its page is overwritten. Finding the key's
// pages reads every page's key once, at most keys/256 reads per sample
// over the run.
func (h *Hist) countKey(k int) {
	var t *countTable
	if n := len(h.spare); n > 0 {
		t, h.spare = h.spare[n-1], h.spare[:n-1]
	} else {
		t = new(countTable)
		t.carry = t.buf[:0]
	}
	var c [1 << 16]uint8
	j := 0
	for p, pk := range h.pageKey {
		if int(pk) == k {
			t.pg[j] = uint32(p)
			j++
			for _, lo := range h.lows[p*histPage : (p+1)*histPage] {
				if c[lo]++; c[lo] == 0 {
					t.carry = append(t.carry, lo)
				}
			}
		}
	}
	for j, p := range t.pg {
		page, counts := h.lows[int(p)*histPage:int(p+1)*histPage], c[j*512:(j+1)*512]
		for i := range page {
			page[i] = uint16(counts[2*i]) | uint16(counts[2*i+1])<<8
		}
	}
	h.dir[k] = keyDir{pages: countPages, tab: t}
}

// pageLen is the number of low halves page p holds: histPage unless it
// is its key's open page.
func (h *Hist) pageLen(p int) int {
	if w := int(h.dir[h.pageKey[p]].w); w%histPage != 0 && w/histPage == p {
		return w - p*histPage
	}
	return histPage
}

// widen copies the keyed store into 8-byte words, of the hint's capacity
// or more, and releases it.
func (h *Hist) widen() {
	h.wide = make([]int64, 0, max(h.hint, int(h.n)))
	for p, k := range h.pageKey {
		if h.dir[k].tab == nil {
			for _, lo := range h.lows[p*histPage : p*histPage+h.pageLen(p)] {
				h.wide = append(h.wide, int64(k)<<16|int64(lo))
			}
		}
	}
	for k, e := range h.dir {
		if t := e.tab; t != nil {
			sortLows(t.carry)
			t.each(h.lows, func(lo, n int) {
				for ; n > 0; n-- {
					h.wide = append(h.wide, int64(k)<<16|int64(lo))
				}
			})
		}
	}
	h.lows, h.pageKey, h.dir, h.spare, h.runs = nil, nil, nil, nil, nil
}

// count returns the number of samples at nanosecond lo of the key, its
// counts in the arena lows, given the index *ci of the first carry not
// below lo in the sorted carries, which it moves past lo's carries.
func (t *countTable) count(lows []uint16, lo int, ci *int) int {
	i, sh := t.slot(uint16(lo))
	n := int(lows[i] >> sh & 0xff)
	for ; *ci < len(t.carry) && int(t.carry[*ci]) == lo; *ci++ {
		n += 256
	}
	return n
}

// each calls yield with every nanosecond of the key that holds samples,
// in ascending order, and their number. The carries must be sorted.
func (t *countTable) each(lows []uint16, yield func(lo, n int)) {
	ci := 0
	for lo := 0; lo < 1<<16; lo++ {
		if n := t.count(lows, lo, &ci); n > 0 {
			yield(lo, n)
		}
	}
}

// tally sorts the carries and sums the counts by block of 256
// nanoseconds, half a page, into cum; it returns the key's count.
func (t *countTable) tally(lows []uint16) int {
	sortLows(t.carry)
	var blk [256]int
	for j, p := range t.pg {
		for i, x := range lows[int(p)*histPage : int(p+1)*histPage] {
			blk[2*j+i/(histPage/2)] += int(x&0xff) + int(x>>8)
		}
	}
	for _, lo := range t.carry {
		blk[lo>>8] += 256
	}
	for b, n := range blk {
		t.cum[b+1] = t.cum[b] + n
	}
	return t.cum[256]
}

// at returns the nanosecond of key k's sample of rank i, below its
// count: a search of the block counts, then a walk of one block. It
// panics when the counts run out first, which a lost carry causes.
func (t *countTable) at(lows []uint16, k int64, i int) int64 {
	b := sort.Search(256, func(b int) bool { return t.cum[b+1] > i })
	if b < 256 {
		i -= t.cum[b]
		ci, _ := slices.BinarySearch(t.carry, uint16(b<<8))
		for lo := b << 8; lo < (b+1)<<8; lo++ {
			n := t.count(lows, lo, &ci)
			if i < n {
				return int64(lo)
			}
			i -= n
		}
	}
	panic(fmt.Sprintf("stats: counted key %d has too few samples in block %d", k, b))
}

// swapPages records that pages p and q of the arena swapped places.
func (t *countTable) swapPages(p, q int) {
	for j, pj := range t.pg {
		switch int(pj) {
		case p:
			t.pg[j] = uint32(q)
		case q:
			t.pg[j] = uint32(p)
		}
	}
}

// N returns the number of samples.
func (h *Hist) N() int { return int(h.n) }

// Reset empties the histogram in place, keeping its mode and allocated
// capacity, so a harness can reuse one recorder across runs without
// reallocating. Every key returns to pages; the count tables'
// descriptors are kept for the next keys that turn counted. A widened exact recorder
// keeps its 8-byte store: going back to pages would allocate.
func (h *Hist) Reset() {
	for _, e := range h.dir {
		if t := e.tab; t != nil {
			t.carry = t.carry[:0]
			h.spare = append(h.spare, t)
		}
	}
	h.lows = h.lows[:0]
	h.pageKey = h.pageKey[:0]
	clear(h.dir)
	h.runs = h.runs[:0]
	h.wide = h.wide[:0]
	clear(h.counts)
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	h.sorted = false
}

// histJSON is the streaming-mode wire form: the non-zero buckets as
// (index, count) pairs plus the exact scalars. The exact mode keeps the
// seed's raw-sample-array encoding, so existing journals stay readable.
type histJSON struct {
	Stream bool    `json:"stream"`
	N      uint64  `json:"n"`
	Sum    float64 `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	// Counts is a flat [idx, count, idx, count, ...] sparse encoding.
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram so it survives a checkpoint-journal
// round trip with full fidelity for its mode: the exact mode writes the
// raw sample array in ascending order (exact percentiles, not a lossy
// digest), the streaming mode writes its bucket counts and exact
// scalars.
func (h *Hist) MarshalJSON() ([]byte, error) {
	if h.counts == nil {
		if h.lows == nil && h.wide == nil {
			return []byte("null"), nil
		}
		h.sortSamples()
		b := make([]byte, 0, 2+8*h.n)
		b = append(b, '[')
		for _, v := range h.wide {
			b = appendSample(b, v)
		}
		for _, r := range h.runs {
			if r.tab != nil {
				r.tab.each(h.lows, func(lo, n int) {
					for ; n > 0; n-- {
						b = appendSample(b, r.key<<16|int64(lo))
					}
				})
				continue
			}
			for _, lo := range h.lows[r.start:r.end] {
				b = appendSample(b, r.key<<16|int64(lo))
			}
		}
		return append(b, ']'), nil
	}
	j := histJSON{Stream: true, N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			j.Counts = append(j.Counts, uint64(i), uint64(c))
		}
	}
	return json.Marshal(j)
}

// appendSample appends v to the JSON array b, which holds '[' and the
// samples before v.
func appendSample(b []byte, v int64) []byte {
	if len(b) > 1 {
		b = append(b, ',')
	}
	return strconv.AppendInt(b, v, 10)
}

// UnmarshalJSON restores a histogram written by MarshalJSON, detecting
// the mode from the wire form ('[' = exact raw samples, '{' =
// streaming buckets). The exact mode records the samples again in
// stored order, so any journal decodes to the same histogram byte for
// byte — every resumed run computes identical percentiles and means
// from identical state.
func (h *Hist) UnmarshalJSON(b []byte) error {
	for _, c := range b {
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if c == '{' {
			var j histJSON
			if err := json.Unmarshal(b, &j); err != nil {
				return err
			}
			if !j.Stream {
				return fmt.Errorf("stats: histogram object without stream marker")
			}
			*h = Hist{counts: make([]uint32, streamBuckets), n: j.N, sum: j.Sum, min: j.Min, max: j.Max}
			for i := 0; i+1 < len(j.Counts); i += 2 {
				idx := j.Counts[i]
				if idx < streamBuckets {
					h.counts[idx] = uint32(j.Counts[i+1])
				}
			}
			return nil
		}
		break
	}
	var samples []int64
	if err := json.Unmarshal(b, &samples); err != nil {
		return err
	}
	if samples == nil {
		*h = Hist{}
		return nil
	}
	*h = *NewHist(len(samples))
	for _, v := range samples {
		h.Add(sim.Duration(v))
	}
	return nil
}

// Mean returns the mean latency (exact in both modes).
func (h *Hist) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.n))
}

// at returns the exact-mode sample of rank i; every query reads the
// sorted samples through it.
func (h *Hist) at(i int) int64 {
	if h.wide != nil {
		return h.wide[i]
	}
	j := sort.Search(len(h.runs), func(j int) bool { return h.runs[j].cum > i }) - 1
	r := h.runs[j]
	if r.tab != nil {
		return r.key<<16 | r.tab.at(h.lows, r.key, i-r.cum)
	}
	return r.key<<16 | int64(h.lows[r.start+i-r.cum])
}

// sortSamples lazily sorts the exact-mode samples: the keyed store by
// grouping its pages into key order, radix-sorting each paged key's run
// of low halves and tallying each counted key's table, the widened one
// with slices.Sort. The result is memoized, so a Summarize — five
// quantiles plus Max — pays for at most one sort and every later query
// on an unchanged histogram is index math.
func (h *Hist) sortSamples() {
	if h.sorted {
		return
	}
	h.sorted = true
	if h.wide != nil {
		slices.Sort(h.wide)
		return
	}
	first := h.groupPages()
	h.runs = slices.Grow(h.runs[:0], min(len(h.dir), len(h.pageKey)))
	cum := 0
	for k, e := range h.dir {
		if first[k] == first[k+1] {
			continue
		}
		r := keyRun{key: int64(k), tab: e.tab, cum: cum}
		if r.tab != nil {
			r.end = r.tab.tally(h.lows)
		} else {
			last := first[k+1] - 1
			r.start, r.end = first[k]*histPage, last*histPage+h.pageLen(last)
			if run := h.lows[r.start:r.end]; !slices.IsSorted(run) {
				sortLows(run)
			}
		}
		h.runs = append(h.runs, r)
		cum += r.end - r.start
	}
}

// groupPages permutes the pages in place into key order, with each key's
// open page last, so that every key's low halves lie in one contiguous
// run, and returns the groups: key k's pages are [first[k], first[k+1]).
// It is an American-flag sort over pages: each swap moves a page into
// its key's group for good.
func (h *Hist) groupPages() (first []int) {
	first = make([]int, len(h.dir)+1)
	for _, k := range h.pageKey {
		first[int(k)+1]++
	}
	for k := range h.dir {
		first[k+1] += first[k]
	}
	// next[k] is the first page of group k not yet known to hold key k.
	next := slices.Clone(first[:len(h.dir)])
	for k := range next {
		for next[k] < first[k+1] {
			p := next[k]
			if j := h.pageKey[p]; int(j) != k {
				h.swapPages(p, next[j])
				next[j]++
			} else {
				next[k]++
			}
		}
	}
	for k, e := range h.dir {
		if last, w := first[k+1]-1, e.w; w%histPage != 0 && int(w)/histPage != last {
			h.swapPages(int(w)/histPage, last)
		}
	}
	return first
}

// swapPages exchanges pages p and q through one page of scratch, and
// moves a directory entry or count table that points into either with
// it.
func (h *Hist) swapPages(p, q int) {
	var tmp [histPage]uint16
	a, b := h.lows[p*histPage:(p+1)*histPage], h.lows[q*histPage:(q+1)*histPage]
	copy(tmp[:], a)
	copy(a, b)
	copy(b, tmp[:])
	ka, kb := h.pageKey[p], h.pageKey[q]
	h.pageKey[p], h.pageKey[q] = kb, ka
	wa, wb := h.dir[ka].w, h.dir[kb].w
	if wa%histPage != 0 && int(wa)/histPage == p {
		h.dir[ka].w = uint32(q*histPage) + wa%histPage
	}
	if wb%histPage != 0 && int(wb)/histPage == q {
		h.dir[kb].w = uint32(p*histPage) + wb%histPage
	}
	ta, tb := h.dir[ka].tab, h.dir[kb].tab
	if ta != nil {
		ta.swapPages(p, q)
	}
	if tb != nil && tb != ta {
		tb.swapPages(p, q)
	}
}

// radixSortCutoff is the bucket size at or below which sortLows hands
// over to slices.Sort: a 256-way pass costs more than it saves there.
const radixSortCutoff = 64

// sortLows sorts one key's low halves in place in two 8-bit passes,
// allocating nothing: an American-flag pass permutes the values into
// buckets by their high byte with cycle-leading swaps, then each bucket
// is rewritten from a count of its low bytes.
func sortLows(a []uint16) {
	if len(a) <= radixSortCutoff {
		slices.Sort(a)
		return
	}
	var count, next [256]int
	for _, v := range a {
		count[v>>8]++
	}
	end := 0
	for d, c := range count {
		next[d] = end
		end += c
	}
	// Bucket d begins at start[d]; next[d] is its first slot not yet
	// holding one of its values.
	start := next
	for d := range next {
		stop := start[d] + count[d]
		for next[d] < stop {
			v := a[next[d]]
			for k := v >> 8; k != uint16(d); k = v >> 8 {
				v, a[next[k]] = a[next[k]], v
				next[k]++
			}
			a[next[d]] = v
			next[d]++
		}
	}
	for d, c := range count {
		b := a[start[d] : start[d]+c]
		if c <= radixSortCutoff {
			slices.Sort(b)
			continue
		}
		var low [256]int
		for _, v := range b {
			low[v&0xff]++
		}
		i := 0
		for l, n := range low {
			for ; n > 0; n-- {
				b[i] = uint16(d<<8 | l)
				i++
			}
		}
	}
}

// RankIndex is the nearest-rank percentile index ceil(q·n)−1 for q in
// (0,1) over n sorted samples — SLO monitoring's rule, shared by Hist and
// the figure timelines.
func RankIndex(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// streamValueAtRank walks the bucket counts to the 1-based rank and
// returns the bucket midpoint, clamped to the exact observed [min, max].
func (h *Hist) streamValueAtRank(rank uint64) sim.Duration {
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += uint64(c)
		if cum >= rank {
			lo, hi := streamBucketBounds(i)
			v := lo + (hi-lo)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}

// P returns the q-quantile (q in [0,1]), e.g. P(0.99) is the P99 latency.
// It returns 0 for an empty histogram. Exact mode is exact; streaming
// mode is within StreamRelError.
func (h *Hist) P(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return sim.Duration(h.min)
	}
	if q >= 1 {
		return sim.Duration(h.max)
	}
	if h.counts != nil {
		rank := uint64(math.Ceil(q * float64(h.n)))
		if rank < 1 {
			rank = 1
		}
		return h.streamValueAtRank(rank)
	}
	h.sortSamples()
	return sim.Duration(h.at(RankIndex(q, int(h.n))))
}

// FracLE returns the fraction of samples <= d (the CDF at d). Exact mode
// is exact; streaming mode is within one bucket.
func (h *Hist) FracLE(d sim.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	if h.counts != nil {
		v := int64(d)
		if v < 0 {
			return 0
		}
		b := streamBucketOf(v)
		var cum uint64
		for i := 0; i <= b; i++ {
			cum += uint64(h.counts[i])
		}
		return float64(cum) / float64(h.n)
	}
	h.sortSamples()
	ns := int(h.n)
	idx := sort.Search(ns, func(i int) bool { return h.at(i) > int64(d) })
	return float64(idx) / float64(ns)
}

// Min returns the smallest sample (exact in both modes).
func (h *Hist) Min() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.min)
}

// Max returns the largest sample (exact in both modes; never sorts).
func (h *Hist) Max() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.max)
}

// CDFPoint is one point of a rendered CDF.
type CDFPoint struct {
	Lat  sim.Duration
	Frac float64
}

// CDF renders the distribution as n evenly spaced quantile points,
// suitable for plotting Fig 4 / Fig 11. All n points come from a single
// sorted (or single cumulative, in streaming mode) pass: the per-point
// cost is pure index math, not a fresh percentile query re-checking sort
// state each time.
func (h *Hist) CDF(n int) []CDFPoint {
	if h.n == 0 || n < 2 {
		return nil
	}
	pts := make([]CDFPoint, 0, n)
	if h.counts != nil {
		// One forward walk over the buckets: quantile ranks arrive in
		// increasing order, so the cumulative scan never restarts.
		var cum uint64
		idx := 0
		lastRank := uint64(0)
		val := sim.Duration(h.min)
		for i := 0; i < n; i++ {
			q := float64(i) / float64(n-1)
			var rank uint64
			switch {
			case i == 0:
				rank = 1
			case i == n-1:
				rank = h.n
			default:
				rank = uint64(math.Ceil(q * float64(h.n)))
				if rank < 1 {
					rank = 1
				}
			}
			if rank > lastRank {
				for idx < len(h.counts) && cum < rank {
					cum += uint64(h.counts[idx])
					idx++
				}
				lo, hi := streamBucketBounds(idx - 1)
				v := lo + (hi-lo)/2
				if v < h.min {
					v = h.min
				}
				if v > h.max {
					v = h.max
				}
				val = sim.Duration(v)
				lastRank = rank
			}
			if i == 0 {
				pts = append(pts, CDFPoint{Lat: sim.Duration(h.min), Frac: 0})
				continue
			}
			if i == n-1 {
				val = sim.Duration(h.max)
			}
			pts = append(pts, CDFPoint{Lat: val, Frac: q})
		}
		return pts
	}
	h.sortSamples()
	ns := int(h.n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		var v int64
		switch {
		case i == 0:
			v = h.at(0)
		case i == n-1:
			v = h.at(ns - 1)
		default:
			v = h.at(RankIndex(q, ns))
		}
		pts = append(pts, CDFPoint{Lat: sim.Duration(v), Frac: q})
	}
	return pts
}

// Summary is a compact latency digest.
type Summary struct {
	N                              int
	Mean, P50, P95, P99, P999, Max sim.Duration
}

// Summarize computes the standard digest. Exact mode sorts at most once
// (memoized across later calls); streaming mode walks its buckets once
// per quantile.
func (h *Hist) Summarize() Summary {
	return Summary{
		N:    h.N(),
		Mean: h.Mean(),
		P50:  h.P(0.50),
		P95:  h.P(0.95),
		P99:  h.P(0.99),
		P999: h.P(0.999),
		Max:  h.Max(),
	}
}

// String renders the digest in microseconds.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p95=%.1fµs p99=%.1fµs p99.9=%.1fµs max=%.1fµs",
		s.N, s.Mean.Micros(), s.P50.Micros(), s.P95.Micros(), s.P99.Micros(), s.P999.Micros(), s.Max.Micros())
}
