package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth checks FIFO order against a slice
// model while the ring wraps and doubles, that popped slots are zeroed,
// and that a warmed ring never grows again.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[*int]
	var model []*int
	vals := make([]int, 1000)
	next := 0
	rng := NewRNG(5)
	for step := 0; step < 20000; step++ {
		if rng.Intn(3) != 0 && next < len(vals) {
			q.Push(&vals[next])
			model = append(model, &vals[next])
			next++
		} else if len(model) > 0 {
			k := 1 + rng.Intn(4)
			got := q.PopN(nil, k)
			want := model[:min(k, len(model))]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: popped %d, want %d", step, *got[i], *want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: PopN(%d) returned %d of %d", step, k, len(got), len(model))
			}
			model = model[len(want):]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len=%d, model %d", step, q.Len(), len(model))
		}
		if next == len(vals) && len(model) == 0 {
			next = 0
		}
	}
	for i := q.Len(); i > 0; i-- {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still pins a popped element", i)
		}
	}
	size := len(q.buf)
	for i := 0; i < 10*size; i++ {
		q.Push(&vals[0])
		if q.Len() == size {
			for q.Len() > size/2 {
				q.Pop()
			}
		}
	}
	if len(q.buf) != size {
		t.Fatalf("a ring kept within its high-water mark grew from %d to %d slots", size, len(q.buf))
	}
}
