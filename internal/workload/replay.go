package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nmapsim/internal/sim"
)

// TraceEntry is one arrival in a recorded trace: a timestamp and an
// optional flow id / service-cost override.
type TraceEntry struct {
	At sim.Time
	// Flow < 0 means "assign round-robin".
	Flow int64
	// AppCycles <= 0 means "sample from the profile".
	AppCycles float64
}

// ParseTrace reads a trace in the simple CSV format
//
//	at_us[,flow[,app_cycles]]
//
// one arrival per line; '#' starts a comment. Timestamps are
// microseconds from run start and must be non-decreasing.
func ParseTrace(r io.Reader) ([]TraceEntry, error) {
	var out []TraceEntry
	sc := bufio.NewScanner(r)
	line := 0
	var last sim.Time
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		atUs, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad timestamp %q", line, fields[0])
		}
		e := TraceEntry{At: sim.Time(atUs * 1000), Flow: -1}
		if e.At < last {
			return nil, fmt.Errorf("workload: trace line %d: timestamps must be non-decreasing", line)
		}
		last = e.At
		if len(fields) > 1 && strings.TrimSpace(fields[1]) != "" {
			f, err := strconv.ParseInt(strings.TrimSpace(fields[1]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad flow %q", line, fields[1])
			}
			e.Flow = f
		}
		if len(fields) > 2 && strings.TrimSpace(fields[2]) != "" {
			c, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad cycles %q", line, fields[2])
			}
			e.AppCycles = c
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// Replayer injects a recorded trace instead of the synthetic burst
// generator — for replaying production arrival patterns through the
// same server assembly.
type Replayer struct {
	Eng     *sim.Engine
	RNG     *sim.RNG
	Profile *Profile
	Trace   []TraceEntry
	Deliver func(*Request)
	// Pool supplies request records; nil means allocate per request.
	Pool *RequestPool
	// Loop repeats the trace every LoopPeriod (0 = play once).
	LoopPeriod sim.Duration

	nextID uint64
}

// Start schedules every arrival in the trace.
func (r *Replayer) Start() {
	r.playFrom(0)
}

func (r *Replayer) playFrom(offset sim.Time) {
	for _, e := range r.Trace {
		e := e
		r.Eng.At(offset+e.At, func() { r.emit(e) })
	}
	if r.LoopPeriod > 0 {
		r.Eng.At(offset+sim.Time(r.LoopPeriod), func() {
			r.playFrom(offset + sim.Time(r.LoopPeriod))
		})
	}
}

func (r *Replayer) emit(e TraceEntry) {
	r.nextID++
	var req *Request
	if r.Pool != nil {
		req = r.Pool.Get()
	} else {
		req = &Request{}
	}
	req.ID = r.nextID
	req.Sent = r.Eng.Now()
	if e.Flow >= 0 {
		req.Flow = uint64(e.Flow)
	} else {
		req.Flow = r.nextID % uint64(r.Profile.Flows)
	}
	if e.AppCycles > 0 {
		req.AppCycles = e.AppCycles
	} else {
		req.AppCycles = r.Profile.SampleAppCycles(r.RNG)
	}
	r.Deliver(req)
}
