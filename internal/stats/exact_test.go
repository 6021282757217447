package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"nmapsim/internal/sim"
)

// refHist is the exact recorder's reference: a plain []int64 that sorts
// itself on every query, as the recorder did before it had a 4-byte
// store. It shares no code with Hist.
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

// checkRef compares every query of h with the reference, which it sorts
// first, exactly as the queries sort h. It leaves both sorted.
func checkRef(t *testing.T, h *Hist, r *refHist) {
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
			le := 0
			for _, v := range r.s {
				if v <= d {
					le++
				}
			}
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
	checkJSON(t, h, r.s)
}

// checkJSON requires h to encode to exactly the bytes of the []int64 want.
func checkJSON(t *testing.T, h *Hist, want []int64) {
	t.Helper()
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantB) {
		t.Fatalf("JSON = %.200s, want %.200s", got, wantB)
	}
}

// The wire form is the []int64 one: arrival order until a query sorts
// the samples, the sorted prefix plus later arrivals after it.
func TestHistJSONMatchesInt64Slice(t *testing.T) {
	h, r := NewHist(64), newRef()
	rng := sim.NewRNG(5)
	for i := 0; i < 40; i++ {
		v := int64(rng.Exp(300_000))
		h.Add(sim.Duration(v))
		r.add(v)
	}
	checkJSON(t, h, r.s)
	checkRef(t, h, r)
	for _, v := range []int64{7, 1_000_000, 3} {
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

// Journals written by the []int64 recorder decode and re-encode to the
// same bytes; they narrow to the 4-byte store when every value fits.
func TestHistLegacyJournal(t *testing.T) {
	for _, c := range []struct {
		samples []int64
		narrow  bool
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
		if narrow := h.wide == nil; narrow != c.narrow {
			t.Fatalf("%s decoded narrow=%v, want %v", legacy, narrow, c.narrow)
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

// The in-place radix sort orders every key width, bucket shape and
// size around the hand-over to slices.Sort exactly as slices.Sort does.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{0, 1, 2, 63, 64, 65, 200, 5000, 70_000} {
		for _, bitsWide := range []uint{1, 8, 9, 17, 20, 24, 25, 32} {
			a := make([]uint32, n)
			for i := range a {
				a[i] = uint32(rng.Uint64() >> (64 - bitsWide))
			}
			if n > 3 {
				a[n/3] = math.MaxUint32 >> (32 - bitsWide)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			radixSort(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d bits=%d: radixSort disagrees with slices.Sort", n, bitsWide)
			}
		}
	}
	same := make([]uint32, 1000)
	for i := range same {
		same[i] = 1 << 20
	}
	radixSort(same)
	for _, v := range same {
		if v != 1<<20 {
			t.Fatal("radixSort changed a constant slice")
		}
	}
}

// FuzzHistExact drives the exact recorder and a []int64 reference with
// one op stream decoded from the fuzzer's bytes, and compares every
// query, Min/Max/Mean and the JSON bytes at each check. Each op is an
// op byte followed by its operands:
//
//	0 small   u16        a latency of u16·16 ns
//	1 top     i8         2^32 + i8 ns: straddles the 4-byte limit
//	2 zero    i8         i8 ns: straddles 0
//	3 any     8 bytes    an arbitrary int64 shifted into ±2^48 ns
//	4 check              every query against the reference
//	5 reset              Reset both
//	6 journal            round-trip through JSON into a fresh recorder
func FuzzHistExact(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 2, 4, 2, 0xff, 4, 0, 9, 9, 4})
	// Widens mid-stream: narrow samples and a query, then 2^32+5 ns,
	// more narrow samples, a query, a journal round trip and a reset.
	f.Add([]byte{0, 0x10, 0, 0, 0x80, 0x01, 2, 3, 4, 1, 5, 0, 0x22, 0x22, 2, 0,
		4, 6, 0, 1, 1, 4, 5, 0, 2, 0, 4})
	// Widens through a negative sample right after a journal round trip.
	f.Add([]byte{0, 5, 5, 6, 2, 0x80, 0, 7, 7, 4, 3, 1, 2, 3, 4, 5, 6, 7, 8, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, r := NewHist(8), newRef()
		add := func(v int64) {
			h.Add(sim.Duration(v))
			r.add(v)
		}
		for op := 0; op < 512 && len(data) > 0; op++ {
			code := data[0] % 7
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
				checkRef(t, h, r)
			case 5:
				h.Reset()
				r.s, r.sum = r.s[:0], 0
			case 6:
				b, err := json.Marshal(h)
				if err != nil {
					t.Fatal(err)
				}
				h = new(Hist)
				if err := json.Unmarshal(b, h); err != nil {
					t.Fatal(err)
				}
				// A decoded journal sums its samples in stored order.
				r.sum = 0
				for _, v := range r.s {
					r.sum += float64(v)
				}
			}
		}
		checkRef(t, h, r)
	})
}
