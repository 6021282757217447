package sim

import (
	"encoding/binary"
	"testing"
)

// FuzzSchedulerEquivalence drives the calendar queue and refHeap with
// one op stream decoded from the fuzzer's bytes and requires the same
// firing order and the same Pending() after every op. Each op is an op
// byte followed by its operands:
//
//	0 schedule   c, m16          one event m<<(c%31) ns out
//	1 chain      c, m16, l16     a self-rescheduling chain of l%8192+1
//	                             fires, m<<(c%31) ns apart
//	2 cancel     i               the i-th live event (mod the live count)
//	3 advance    c, m16          Run to now + m<<(c%31)
//	4 run-to-N   n16             run until n%8192+1 more events fired
//	5 reserve    c, m16, k, b    reserve k%48+1 seqs; slot i goes at
//	                             (i+1)·(m<<(c%31)) ns out with its
//	                             reserved seq if bit i%8 of b is set, and
//	                             the last slot always (the NIC's lazy Tx)
//	6 timer      m, a            one event m%32+1 ms out; Run a%64+1 µs
//	                             on, then cancel it (a client RTO that
//	                             its response disarms)
//
// Chains keep the rebuild paths busy: a long run of equal short gaps
// drags the measured dispatch gap, and with it the calendar geometry,
// away from whatever else is pending. Timers are the opposite: scheduled
// far out and cancelled unfired, they load the queue without ever
// reaching the dispatch-gap estimate. The stream ends with a full drain.
func FuzzSchedulerEquivalence(f *testing.F) {
	// The calibrate anchor reproduction: one event ~1s out, then a 10ns
	// chain that stops exactly at the 4096th fire, where the drift check
	// rebuilds with only the far event pending.
	f.Add([]byte{0, 30, 0, 1, 1, 0, 0, 10, 0x0f, 0xff})
	// Same-instant batch, cancels, a far event and interleaved advances.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 20, 0, 3, 3, 10, 0, 4, 4, 0, 5})
	f.Add([]byte{1, 4, 0, 70, 1, 0, 1, 10, 0, 100, 0, 255, 3, 12, 255, 255, 4, 0, 200, 2, 7})
	// Reserved blocks: a 48-slot block 1.2µs apart with a sparse mask
	// between ordinary events, a same-instant block, a cancel and runs.
	f.Add([]byte{5, 0, 4, 176, 47, 0x11, 0, 0, 0, 100, 5, 0, 0, 0, 9, 0xff, 2, 3, 3, 12, 0, 200, 4, 0, 30})
	// Parked timers: two reserved blocks park 96 events 1–78s out in
	// the overflow ladder while a 256ns chain runs past the 4096-fire
	// drift check (whose rebuild re-pushes them), RTO-style timers are
	// armed and cancelled around it, and cancels thin the queue.
	f.Add([]byte{5, 30, 0, 1, 47, 0xff, 5, 29, 0, 3, 47, 0xff,
		1, 8, 0, 1, 0x10, 0x68, 6, 19, 3, 4, 0x10, 0x00, 6, 7, 40, 2, 6, 2, 100,
		4, 0x10, 0x00, 6, 31, 63, 2, 0, 2, 1, 4, 0x01, 0x00})
	// A lap walk: a reserved slot ~24 days out, an advance of ~4s
	// and a 2ms chain, then timers and cancels. Scheduling behind a
	// cursor parked at a distant event once stretched the window over
	// millions of laps of the rung array, and the walk back to the far
	// event stepped through them one lap at a time (50s of CPU).
	f.Add([]byte("\x05\x1e\xff\x05\x1d\x00\x03/\xff\x01\x15\x00\x01\x10h\x06\x13\x03\x04\x10\x00\x06\a(\x02\x06\x02d\x04\x10\x00\x06\x1f\x1f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := newFuzzTrial(t)
		const maxOps = 256
		for op := 0; op < maxOps && len(data) > 0; op++ {
			code := data[0] % 7
			data = data[1:]
			switch code {
			case 0, 1:
				d, ok := fuzzDelay(&data)
				if !ok {
					return
				}
				n := 1
				if code == 1 {
					l, ok := fuzzU16(&data)
					if !ok {
						return
					}
					n = int(l%8192) + 1
				}
				fz.schedule(d, n)
			case 2:
				if len(data) < 1 {
					return
				}
				fz.cancel(int(data[0]))
				data = data[1:]
			case 3:
				d, ok := fuzzDelay(&data)
				if !ok {
					return
				}
				fz.advance(fz.eng.Now() + Time(d))
			case 4:
				n, ok := fuzzU16(&data)
				if !ok {
					return
				}
				fz.runN(int(n%8192) + 1)
			case 5:
				d, ok := fuzzDelay(&data)
				if !ok || len(data) < 2 {
					return
				}
				fz.reserve(d, int(data[0]%48)+1, data[1])
				data = data[2:]
			case 6:
				if len(data) < 2 {
					return
				}
				fz.timer(Duration(data[0]%32+1)*Millisecond, Duration(data[1]%64+1)*Microsecond)
				data = data[2:]
			}
		}
		fz.advance(Time(1) << 62)
		if fz.eng.Pending() != 0 {
			t.Fatalf("engine not empty after drain: %d pending", fz.eng.Pending())
		}
	})
}

func fuzzU16(data *[]byte) (uint16, bool) {
	if len(*data) < 2 {
		return 0, false
	}
	v := binary.BigEndian.Uint16(*data)
	*data = (*data)[2:]
	return v, true
}

func fuzzDelay(data *[]byte) (Duration, bool) {
	if len(*data) < 3 {
		return 0, false
	}
	c := (*data)[0] % 31
	*data = (*data)[1:]
	m, _ := fuzzU16(data)
	return Duration(m) << c, true
}

// fuzzChain is one schedule op's chain: fire k of n, gap apart. Chain
// c's k-th event has the id c | k<<32 on both sides, so the engine and
// the reference mint the same follow-on ids without sharing state.
type fuzzChain struct {
	n   int
	gap Duration
}

type fuzzTrial struct {
	t      *testing.T
	budget int // chain fires left to hand out, bounding one input's run time
	eng    *Engine
	ref    *refHeap
	chains []fuzzChain
	evs    map[int]Event
	rhs    map[int]refHandle
	live   []int // ids pending on both sides, in scheduling order
	got    []int
	want   []int
	fires  int
	stopAt int // the engine stops once len(got) reaches it (0 = never)
	fn     func(any)
}

func newFuzzTrial(t *testing.T) *fuzzTrial {
	fz := &fuzzTrial{t: t, budget: 1 << 16, eng: NewEngine(), ref: &refHeap{}, evs: map[int]Event{}, rhs: map[int]refHandle{}}
	fz.fn = func(a any) {
		id := a.(int)
		fz.got = append(fz.got, id)
		if next, ok := fz.follow(id); ok {
			fz.evs[next] = fz.eng.ScheduleArg(fz.chains[id&(1<<32-1)].gap, fz.fn, next)
		}
		if len(fz.got) == fz.stopAt {
			fz.eng.Abort(nil)
		}
	}
	return fz
}

// follow returns the id of the chain event that id's firing schedules.
func (fz *fuzzTrial) follow(id int) (int, bool) {
	c, k := id&(1<<32-1), id>>32
	if k+1 >= fz.chains[c].n {
		return 0, false
	}
	return c | (k+1)<<32, true
}

func (fz *fuzzTrial) schedule(gap Duration, n int) {
	n = max(1, min(n, fz.budget))
	fz.budget -= n
	id := len(fz.chains)
	fz.chains = append(fz.chains, fuzzChain{n: n, gap: gap})
	at := fz.eng.Now() + Time(gap)
	fz.evs[id] = fz.eng.AtArg(at, fz.fn, id)
	fz.rhs[id] = fz.ref.schedule(at, id, false)
	fz.live = append(fz.live, id)
	fz.check()
}

// reserve takes a block of n seqs on both sides and schedules the
// slots mask selects, each at its explicit reserved seq.
func (fz *fuzzTrial) reserve(gap Duration, n int, mask byte) {
	base, rbase := fz.eng.Reserve(n), fz.ref.seq
	fz.ref.seq += uint64(n)
	if base != rbase {
		fz.t.Fatalf("Reserve returned seq %d, reference %d", base, rbase)
	}
	for i := 0; i < n; i++ {
		if mask&(1<<(i%8)) == 0 && i != n-1 {
			continue
		}
		id := len(fz.chains)
		fz.chains = append(fz.chains, fuzzChain{n: 1})
		at := fz.eng.Now() + Time(i+1)*Time(gap)
		seq := base + uint64(i)
		fz.evs[id] = fz.eng.AtSeqArg(at, seq, fz.fn, id)
		fz.rhs[id] = fz.ref.scheduleSeq(at, seq, id)
		fz.live = append(fz.live, id)
	}
	fz.check()
}

func (fz *fuzzTrial) cancel(i int) {
	if len(fz.live) == 0 {
		return
	}
	i %= len(fz.live)
	id := fz.live[i]
	if ec, rc := fz.evs[id].Cancel(), fz.ref.cancel(fz.rhs[id]); !ec || !rc {
		fz.t.Fatalf("cancel of live id %#x: engine=%v reference=%v", id, ec, rc)
	}
	delete(fz.evs, id)
	delete(fz.rhs, id)
	fz.live = append(fz.live[:i], fz.live[i+1:]...)
	fz.check()
}

// timer arms one event timeout out, runs adv on and cancels it while
// still pending (adv is always shorter than timeout).
func (fz *fuzzTrial) timer(timeout, adv Duration) {
	fz.schedule(timeout, 1)
	id := len(fz.chains) - 1
	fz.advance(fz.eng.Now() + Time(adv))
	for i, l := range fz.live {
		if l == id {
			fz.cancel(i)
			return
		}
	}
	fz.t.Fatalf("timer id %#x fired %v before its %v timeout", id, adv, timeout)
}

// refFire pops the reference minimum and mirrors the engine callback.
func (fz *fuzzTrial) refFire() {
	ev := fz.ref.popMin()
	fz.ref.now = ev.at
	fz.want = append(fz.want, ev.id)
	if next, ok := fz.follow(ev.id); ok {
		fz.rhs[next] = fz.ref.schedule(fz.ref.now+Time(fz.chains[ev.id&(1<<32-1)].gap), next, false)
	}
	fz.ref.recycle(ev)
}

func (fz *fuzzTrial) advance(until Time) {
	fz.eng.Run(until)
	for len(fz.ref.heap) > 0 && fz.ref.heap[0].at <= until {
		fz.refFire()
	}
	if fz.ref.now < until {
		fz.ref.now = until
	}
	fz.settle()
}

func (fz *fuzzTrial) runN(n int) {
	fz.stopAt = len(fz.got) + n
	fz.eng.RunAll()
	fz.stopAt = 0
	for i := 0; i < n && len(fz.ref.heap) > 0; i++ {
		fz.refFire()
	}
	fz.settle()
}

// settle compares the firing streams since the last settle, retires the
// fired ids and carries the live list over: survivors first, then the
// pending follow-ons of the fired chain events, in firing order.
func (fz *fuzzTrial) settle() {
	if len(fz.got) != len(fz.want) {
		fz.t.Fatalf("engine fired %d events, reference %d", len(fz.got), len(fz.want))
	}
	for i := range fz.got {
		if fz.got[i] != fz.want[i] {
			fz.t.Fatalf("firing order diverges at event %d: engine id=%#x, reference id=%#x",
				fz.fires+i, fz.got[i], fz.want[i])
		}
		delete(fz.evs, fz.got[i])
		delete(fz.rhs, fz.got[i])
	}
	live := fz.live[:0]
	for _, id := range fz.live {
		if _, ok := fz.evs[id]; ok {
			live = append(live, id)
		}
	}
	for _, id := range fz.got {
		if next, ok := fz.follow(id); ok {
			if _, ok := fz.evs[next]; ok {
				live = append(live, next)
			}
		}
	}
	fz.fires += len(fz.got)
	fz.got, fz.want = fz.got[:0], fz.want[:0]
	for id, h := range fz.evs {
		if _, ok := fz.rhs[id]; !ok || !h.Pending() || !fz.rhs[id].pending() {
			fz.t.Fatalf("id %#x pending on one side only", id)
		}
	}
	fz.live = live
	fz.check()
}

func (fz *fuzzTrial) check() {
	if ep, rp := fz.eng.Pending(), len(fz.ref.heap); ep != rp {
		fz.t.Fatalf("Pending() diverges at now=%d: engine=%d reference=%d", fz.eng.Now(), ep, rp)
	}
}
