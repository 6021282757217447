package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"nmapsim/internal/sim"
)

// refHist is the exact recorder's reference: a plain []int64 that sorts
// itself on every query. It shares no code with Hist.
type refHist struct {
	s   []int64
	sum float64
}

func newRef() *refHist { return &refHist{s: []int64{}} }

func (r *refHist) add(v int64) {
	r.s = append(r.s, v)
	r.sum += float64(v)
}

// rank is the nearest-rank order statistic over the sorted samples.
func (r *refHist) rank(q float64) int64 {
	i := int(math.Ceil(q*float64(len(r.s)))) - 1
	if i < 0 {
		i = 0
	}
	return r.s[i]
}

// checkRef compares every query of h and its JSON bytes with the
// reference, which it sorts first, exactly as the queries sort h. It
// leaves both sorted.
func checkRef(t *testing.T, h *Hist, r *refHist) {
	t.Helper()
	checkQueries(t, h, r)
	checkJSON(t, h, r.s)
}

// checkQueries is checkRef without the JSON bytes: N, Mean, Min, Max,
// the quantiles, FracLE and CDF.
func checkQueries(t *testing.T, h *Hist, r *refHist) {
	t.Helper()
	slices.Sort(r.s)
	n := len(r.s)
	if h.N() != n {
		t.Fatalf("N = %d, want %d", h.N(), n)
	}
	var mean, lo, hi sim.Duration
	if n > 0 {
		mean = sim.Duration(r.sum / float64(n))
		lo, hi = sim.Duration(r.s[0]), sim.Duration(r.s[n-1])
	}
	if h.Mean() != mean || h.Min() != lo || h.Max() != hi {
		t.Fatalf("mean/min/max = %v/%v/%v, want %v/%v/%v", h.Mean(), h.Min(), h.Max(), mean, lo, hi)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		var want sim.Duration
		switch {
		case n == 0:
		case q <= 0:
			want = lo
		case q >= 1:
			want = hi
		default:
			want = sim.Duration(r.rank(q))
		}
		if got := h.P(q); got != want {
			t.Fatalf("P(%g) = %v, want %v", q, got, want)
		}
	}
	probes := []int64{-1 << 40, -1, 0, 1, 1 << 31, math.MaxUint32, 1 << 32, 1 << 40}
	if n > 0 {
		probes = append(probes, r.s[0], r.s[n/2], r.s[n-1], r.s[n/2]-1)
	}
	for _, d := range probes {
		want := 0.0
		if n > 0 {
			le := sort.Search(n, func(i int) bool { return r.s[i] > d })
			want = float64(le) / float64(n)
		}
		if got := h.FracLE(sim.Duration(d)); got != want {
			t.Fatalf("FracLE(%d) = %v, want %v", d, got, want)
		}
	}
	for _, pts := range []int{2, 7, 51} {
		got := h.CDF(pts)
		if n == 0 {
			if got != nil {
				t.Fatalf("CDF(%d) of an empty recorder = %v, want nil", pts, got)
			}
			continue
		}
		for i, pt := range got {
			q := float64(i) / float64(pts-1)
			if want := (CDFPoint{Lat: sim.Duration(r.rank(q)), Frac: q}); pt != want {
				t.Fatalf("CDF(%d)[%d] = %+v, want %+v", pts, i, pt, want)
			}
		}
		if len(got) != pts {
			t.Fatalf("CDF(%d) has %d points", pts, len(got))
		}
	}
}

// checkJSON requires h to encode to exactly the bytes of the []int64
// want in ascending order, and returns them.
func checkJSON(t *testing.T, h *Hist, want []int64) []byte {
	t.Helper()
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.Clone(want)
	slices.Sort(want)
	wantB, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantB) {
		t.Fatalf("JSON = %.200s, want %.200s", got, wantB)
	}
	return got
}

// The wire form is the []int64 one in ascending order, before the
// first query as after it, and with samples added after a query.
func TestHistJSONMatchesInt64Slice(t *testing.T) {
	h, r := NewHist(64), newRef()
	pin := func(want string) {
		t.Helper()
		got, err := json.Marshal(h)
		if err != nil || string(got) != want {
			t.Fatalf("JSON = %s (%v), want %s", got, err, want)
		}
	}
	for _, v := range []int64{984_127, 37_794, 65_536, 3, 65_535, 812_345} {
		h.Add(sim.Duration(v))
		r.add(v)
	}
	pin("[3,37794,65535,65536,812345,984127]")
	checkRef(t, h, r)
	for _, v := range []int64{7, 1_000_000, 65_536} {
		h.Add(sim.Duration(v))
		r.add(v)
	}
	pin("[3,7,37794,65535,65536,65536,812345,984127,1000000]")
	rng := sim.NewRNG(5)
	for i := 0; i < 40; i++ {
		v := int64(rng.Exp(300_000))
		h.Add(sim.Duration(v))
		r.add(v)
	}
	checkJSON(t, h, r.s)
	checkRef(t, h, r)
}

// An empty recorder encodes as [], and the nil slice a null journal
// entry decodes to encodes as null again.
func TestHistJSONEmptyAndNull(t *testing.T) {
	for _, c := range []struct {
		name string
		h    *Hist
		want string
	}{
		{"NewHist(0)", NewHist(0), "[]"},
		{"NewHist(16)", NewHist(16), "[]"},
		{"zero", &Hist{}, "null"},
	} {
		got, err := json.Marshal(c.h)
		if err != nil || string(got) != c.want {
			t.Fatalf("%s: JSON %s (%v), want %s", c.name, got, err, c.want)
		}
	}
	for _, in := range []string{"null", "[]"} {
		h := NewHist(8)
		if err := json.Unmarshal([]byte(in), h); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(h)
		if err != nil || string(got) != in {
			t.Fatalf("%s decoded and re-encoded as %s (%v)", in, got, err)
		}
		if h.N() != 0 || h.P(0.99) != 0 || h.CDF(11) != nil {
			t.Fatalf("%s decoded to a non-empty recorder", in)
		}
	}
}

// A sample outside [0, 2^32) ns widens the store; the widened recorder
// answers and encodes exactly as the reference, before and after it
// widens, and with queries on both sides of the widening.
func TestHistWidened(t *testing.T) {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"5s", 5 * int64(sim.Second)},
		{"2^32ns", 1 << 32},
		{"negative", -250},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, r := NewHist(256), newRef()
			rng := sim.NewRNG(9)
			for i := 0; i < 200; i++ {
				if i == 120 {
					checkRef(t, h, r)
					h.Add(sim.Duration(c.v))
					r.add(c.v)
					if h.wide == nil {
						t.Fatalf("%d ns did not widen the store", c.v)
					}
					checkJSON(t, h, r.s)
				}
				v := int64(rng.Exp(400_000))
				h.Add(sim.Duration(v))
				r.add(v)
			}
			if cap(h.wide) != 256 {
				t.Fatalf("widened store has capacity %d, want the hint's 256", cap(h.wide))
			}
			checkJSON(t, h, r.s)
			checkRef(t, h, r)
		})
	}
}

// Journals written by the []int64 recorder in any order decode and
// re-encode to the same samples in ascending order; they load into the
// paged store when every value fits.
func TestHistLegacyJournal(t *testing.T) {
	for _, c := range []struct {
		samples []int64
		paged   bool
	}{
		{[]int64{812_345, 37_794, 984_127, 0, math.MaxUint32}, true},
		{[]int64{812_345, 1 << 32, 37_794}, false},
		{[]int64{5, -3, 9}, false},
	} {
		legacy, err := json.Marshal(c.samples)
		if err != nil {
			t.Fatal(err)
		}
		var h Hist
		if err := json.Unmarshal(legacy, &h); err != nil {
			t.Fatal(err)
		}
		if paged := h.wide == nil; paged != c.paged {
			t.Fatalf("%s decoded paged=%v, want %v", legacy, paged, c.paged)
		}
		r := newRef()
		for _, v := range c.samples {
			r.add(v)
		}
		checkJSON(t, &h, r.s)
		checkRef(t, &h, r)
	}
	var h Hist
	if err := json.Unmarshal([]byte("[1,2.5]"), &h); err == nil {
		t.Fatal("a fractional sample decoded without error")
	}
}

// The in-place two-pass radix sort orders every value width, bucket
// shape and size around the hand-over to slices.Sort exactly as
// slices.Sort does.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{0, 1, 2, 63, 64, 65, 200, 5000, 70_000} {
		for _, bitsWide := range []uint{1, 7, 8, 9, 12, 15, 16} {
			a := make([]uint16, n)
			for i := range a {
				a[i] = uint16(rng.Uint64() >> (64 - bitsWide))
			}
			if n > 3 {
				a[n/3] = math.MaxUint16 >> (16 - bitsWide)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			sortLows(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d bits=%d: sortLows disagrees with slices.Sort", n, bitsWide)
			}
		}
	}
	same := make([]uint16, 1000)
	for i := range same {
		same[i] = 1 << 12
	}
	sortLows(same)
	for _, v := range same {
		if v != 1<<12 {
			t.Fatal("sortLows changed a constant slice")
		}
	}
}

// FuzzHistExact drives the exact recorder and a []int64 reference with
// one op stream decoded from the fuzzer's bytes. It compares every
// query and Min/Max/Mean at each check, and the JSON bytes, which cost
// O(N) to marshal, at each journal round trip and at the end of the
// input. Each op is an op byte followed by its operands:
//
//	0 small   u16        a latency of u16·16 ns
//	1 top     i8         2^32 + i8 ns: straddles the paged store's limit
//	2 zero    i8         i8 ns: straddles 0
//	3 any     8 bytes    an arbitrary int64 shifted into ±2^48 ns
//	4 check              every query against the reference
//	5 reset              Reset both
//	6 journal            compare the JSON bytes, then round-trip them into
//	                     a fresh recorder
//	7 spread  u8 u8      300 samples over up to 256 keys of 65,536 ns,
//	                     starting at key u8 and striding by u8|1: more
//	                     than a page per op, so pages fill and open mid-run
//	8 burst   k s        4,096 samples into key k%8, at the low halves
//	                     i·s mod 65,536: eight bursts fill the pages at
//	                     which a key turns counted, a ninth converts it
//	9 copies  k u16      4,096 copies of one value, key k%8 and low u16:
//	                     its count passes 255 within the op
//
// Decoding stops once an input has added 2^17 samples, which bounds how
// long the checks of one input take.
func FuzzHistExact(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 2, 4, 2, 0xff, 4, 0, 9, 9, 4})
	// Widens mid-stream: paged samples and a query, then 2^32+5 ns,
	// more samples, a query, a journal round trip and a reset.
	f.Add([]byte{0, 0x10, 0, 0, 0x80, 0x01, 2, 3, 4, 1, 5, 0, 0x22, 0x22, 2, 0,
		4, 6, 0, 1, 1, 4, 5, 0, 2, 0, 4})
	// Widens through a negative sample right after a journal round trip.
	f.Add([]byte{0, 5, 5, 6, 2, 0x80, 0, 7, 7, 4, 3, 1, 2, 3, 4, 5, 6, 7, 8, 4})
	// Adds after a query: spread, query, more samples into the open and
	// new pages of the same and other keys, query again.
	f.Add([]byte{7, 3, 5, 4, 0, 0x34, 0x12, 7, 3, 7, 7, 200, 9, 4, 0, 1, 0, 4})
	// Reset then refill: spread, query, reset, a different spread.
	f.Add([]byte{7, 0, 1, 7, 40, 3, 4, 5, 7, 1, 2, 0, 9, 0, 4, 6, 4})
	// Widens after paging: two spreads, a query, then 2^32-3 ns (still
	// paged) and 2^32+1 ns, a query, a journal round trip and more samples.
	f.Add([]byte{7, 250, 17, 7, 0, 1, 4, 1, 0xfd, 1, 1, 4, 6, 4, 7, 2, 2, 0, 5, 5, 4})
	burst := func(n int, key, stride byte) []byte {
		return bytes.Repeat([]byte{8, key, stride}, n)
	}
	seed := func(parts ...[]byte) { f.Add(bytes.Join(parts, nil)) }
	// Converts, queries, adds more to the counted key, to a paged key
	// and to the counted key's values past 255, and queries again.
	seed(burst(9, 3, 7), []byte{4}, burst(2, 3, 64), []byte{0, 0x10, 0, 9, 3, 5, 0, 4})
	// Converts two keys, resets, refills other keys past conversion.
	seed(burst(9, 1, 3), burst(9, 2, 0x80), []byte{4, 5}, burst(10, 5, 11), []byte{4})
	// Converts, then widens through 2^32+9 ns and a negative sample.
	seed(burst(9, 0, 1), []byte{4, 1, 9, 4, 9, 0, 0xff, 0xff, 2, 0xf0, 4})
	// Converts, round-trips the journal, adds more and queries.
	seed(burst(9, 6, 0x31), []byte{6, 4}, burst(1, 6, 2), []byte{4})
	// 73,728 samples of one value: its count passes 255 and 65,535.
	seed(bytes.Repeat([]byte{9, 4, 0x21, 0x43}, 18), []byte{4, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, r := NewHist(8), newRef()
		added := 0
		add := func(v int64) {
			h.Add(sim.Duration(v))
			r.add(v)
			added++
		}
		for op := 0; op < 512 && len(data) > 0 && added < 1<<17; op++ {
			code := data[0] % 10
			data = data[1:]
			switch code {
			case 0:
				if len(data) < 2 {
					return
				}
				add(int64(binary.LittleEndian.Uint16(data)) * 16)
				data = data[2:]
			case 1, 2:
				if len(data) < 1 {
					return
				}
				v := int64(int8(data[0]))
				if code == 1 {
					v += 1 << 32
				}
				add(v)
				data = data[1:]
			case 3:
				if len(data) < 8 {
					return
				}
				add(int64(binary.LittleEndian.Uint64(data)) >> 15)
				data = data[8:]
			case 4:
				checkQueries(t, h, r)
			case 5:
				h.Reset()
				r.s, r.sum = r.s[:0], 0
			case 6:
				b := checkJSON(t, h, r.s)
				h = new(Hist)
				if err := json.Unmarshal(b, h); err != nil {
					t.Fatal(err)
				}
				// A decoded journal sums its samples in stored order,
				// which is ascending.
				slices.Sort(r.s)
				r.sum = 0
				for _, v := range r.s {
					r.sum += float64(v)
				}
			case 7:
				if len(data) < 2 {
					return
				}
				key, stride := int64(data[0]), int64(data[1]|1)
				for i := int64(0); i < 300; i++ {
					add((key+i*stride)%256<<16 | i*40_503%65_536)
				}
				data = data[2:]
			case 8:
				if len(data) < 2 {
					return
				}
				key, stride := int64(data[0]%8), int64(data[1])
				for i := int64(0); i < 4096; i++ {
					add(key<<16 | i*stride%65_536)
				}
				data = data[2:]
			case 9:
				if len(data) < 3 {
					return
				}
				v := int64(data[0]%8)<<16 | int64(binary.LittleEndian.Uint16(data[1:]))
				for i := 0; i < 4096; i++ {
					add(v)
				}
				data = data[3:]
			}
		}
		checkRef(t, h, r)
	})
}

// tableBytes is what a count table costs beyond the arena pages that
// hold its counts: its descriptor, carries within its buffer.
const tableBytes = int(unsafe.Sizeof(countTable{}))

// storeBytes is the exact store's backing footprint: the capacity of
// every array it holds, count table descriptors and their carries
// included.
func storeBytes(h *Hist) int {
	b := 2*cap(h.lows) + 2*cap(h.pageKey) + int(unsafe.Sizeof(keyDir{}))*cap(h.dir) +
		8*cap(h.spare) + int(unsafe.Sizeof(keyRun{}))*cap(h.runs) + 8*cap(h.wide)
	table := func(t *countTable) {
		b += tableBytes
		if cap(t.carry) > len(t.buf) {
			b += 2 * cap(t.carry)
		}
	}
	for _, t := range h.spare {
		table(t)
	}
	for _, e := range h.dir {
		if e.tab != nil {
			table(e.tab)
		}
	}
	return b
}

// counted is the number of h's keys that have turned counted.
func counted(h *Hist) int {
	n := 0
	for _, e := range h.dir {
		if e.tab != nil {
			n++
		}
	}
	return n
}

// The footprint gate: N in-range samples over K keys of 65,536 ns cost
// 2 bytes each of the hint's arena, plus a 2-byte key per page, at most
// one partly filled page per key, a count table descriptor per key past
// 32,768 samples and a small constant — sorted and queried, because the
// sort must not allocate a second copy. A hint of N covers the open
// pages of histSlackKeys keys; beyond that the hint carries them. One
// hot key needs a hint of only the countPages pages it fills before it
// turns counted, and then holds the same bytes whatever its N.
func TestHistStoreFootprint(t *testing.T) {
	const oneKey = countPages * histPage
	for _, c := range []struct{ n, keys, hint, counted int }{
		{100_000, 1, 100_000, 1},
		{1_000_000, 4, 1_000_000, 4},
		{1_500_000, 16, 1_500_000, 16},
		{300_000, 200, 300_000 + 200*histPage, 0},
		{100_000, 1, oneKey, 1},
		{1_200_000, 1, oneKey, 1},
		{4_000_000, 1, oneKey, 1},
	} {
		h := NewHist(c.hint)
		rng := sim.NewRNG(3)
		for i := 0; i < c.n; i++ {
			h.Add(sim.Duration(int64(rng.Intn(c.keys))<<16 | int64(rng.Intn(1<<16))))
		}
		h.Summarize()
		if h.wide != nil || len(h.runs) != c.keys || counted(h) != c.counted {
			t.Fatalf("%+v: %d keys sorted, %d counted, wide=%v", c, len(h.runs), counted(h), h.wide != nil)
		}
		// Per key: an open page and its directory and run entries.
		perKey := 2*histPage + 64
		arena := min(c.n, c.hint)
		limit := 2*arena + 2*arena/histPage + (c.keys+histSlackKeys)*perKey + c.counted*tableBytes + 1024
		if got := storeBytes(h); got > limit {
			t.Errorf("%+v: store holds %d bytes (%.3f B/sample), want ≤ %d",
				c, got, float64(got)/float64(c.n), limit)
		}
	}
}

// A key turns counted on its first sample past countPages full pages,
// with one allocation, the table's descriptor; every later sample of it
// is allocation-free, and so is a second conversion after a Reset.
func TestHistCountedKeyAllocations(t *testing.T) {
	const full = countPages * histPage
	var h *Hist
	fill := func(n int) func() {
		return func() {
			h = NewHist(full + 1)
			for i := 0; i < n; i++ {
				h.Add(sim.Duration(3<<16 | i*7919%65_536))
			}
		}
	}
	paged := testing.AllocsPerRun(3, fill(full))
	if counted(h) != 0 {
		t.Fatal("key turned counted before its first sample past its full pages")
	}
	if n := testing.AllocsPerRun(3, fill(full+1)) - paged; n != 1 || counted(h) != 1 {
		t.Fatalf("turning counted allocates %.0f times, want 1 (counted keys: %d)", n, counted(h))
	}
	if n := testing.AllocsPerRun(10_000, func() { h.Add(3<<16 | 4242) }); n != 0 {
		t.Fatalf("Add to a counted key allocates %.1f/op", n)
	}
	refill := func() {
		h.Reset()
		for i := 0; i <= full; i++ {
			h.Add(sim.Duration(9<<16 | i%300))
		}
	}
	if n := testing.AllocsPerRun(3, refill); n != 0 || counted(h) != 1 || len(h.spare) != 0 {
		t.Fatalf("refilling past a conversion after Reset allocates %.0f times", n)
	}
	r := newRef()
	h.Reset()
	for i := int64(0); i <= full+5000; i++ {
		h.Add(sim.Duration(9<<16 | i%300))
		r.add(9<<16 | i%300)
	}
	checkRef(t, h, r)
}
