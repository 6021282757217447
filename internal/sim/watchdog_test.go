package sim

import (
	"errors"
	"strings"
	"testing"
)

// A deliberately self-rescheduling event must trip the max-event guard
// and surface a diagnostic error instead of hanging RunAll forever.
func TestWatchdogMaxEventsStopsRunawayRun(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(10_000)
	var runaway func()
	runaway = func() { e.Schedule(Microsecond, runaway) }
	e.Schedule(Microsecond, runaway)
	e.RunAll() // would never return without the watchdog

	err := e.Err()
	if err == nil {
		t.Fatal("runaway run completed without tripping the watchdog")
	}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("Err() = %v, want ErrWatchdog", err)
	}
	if !strings.Contains(err.Error(), "10000 events") {
		t.Fatalf("diagnostic %q does not mention the event bound", err)
	}
	// The engine is dead: further runs are no-ops and the error sticks.
	before := e.Fired()
	e.RunAll()
	e.Run(Time(Second))
	if e.Fired() != before {
		t.Fatalf("aborted engine dispatched %d more events", e.Fired()-before)
	}
}

// Abort kills the engine permanently even across the warmup/measure
// two-phase Run pattern the server uses.
func TestAbortIsPermanent(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	n := 0
	e.Schedule(Microsecond, func() {
		n++
		e.Abort(boom)
	})
	e.Schedule(2*Microsecond, func() { n++ })
	e.Run(Time(Second))
	e.Run(Time(2 * Second)) // second phase must not resurrect the engine
	if n != 1 {
		t.Fatalf("dispatched %d events after Abort, want 1", n)
	}
	if e.Err() != boom {
		t.Fatalf("Err() = %v, want boom", e.Err())
	}
	// The first abort reason wins.
	e.Abort(errors.New("later"))
	if e.Err() != boom {
		t.Fatalf("Err() overwritten to %v", e.Err())
	}
}

// An unarmed watchdog never interferes with a normal bounded run.
func TestWatchdogDisabledByDefault(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Duration(i)*Microsecond, func() { n++ })
	}
	e.RunAll()
	if n != 100 || e.Err() != nil {
		t.Fatalf("n=%d err=%v", n, e.Err())
	}
}
