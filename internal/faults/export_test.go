package faults

import "nmapsim/internal/sim"

// ScheduledClass exposes one scheduled fault class descriptor to the
// external tests.
type ScheduledClass struct {
	Key string
	// One returns a Config holding a single fault of the class on target
	// at time at: a 1 ms window, and a PARAM inside the class's range.
	One func(target int, at sim.Duration) Config
}

// ScheduledClasses lists every scheduled fault class, in Config order.
func ScheduledClasses() []ScheduledClass {
	out := make([]ScheduledClass, len(classes))
	for n, k := range classes {
		param := k.lo + 1
		if k.hi > 0 {
			param = (k.lo + k.hi) / 2
		}
		out[n] = ScheduledClass{Key: k.key, One: func(target int, at sim.Duration) Config {
			var c Config
			k.add(&c, entry{target: target, at: at, dur: sim.Millisecond, param: param})
			return c
		}}
	}
	return out
}
