package experiments

import (
	"strings"
	"testing"
)

// FigResilience tells one story end to end: both arms share the crash
// schedule, the shed-off arm never sheds, the shed-on arm sheds during
// the outage and posts a strictly lower survivor P99, pre-crash buckets
// agree between the arms (admission control is inert until the estimate
// trips), and every arm's ledger stays exact.
func TestFigResilienceStory(t *testing.T) {
	fig, err := new(Harness).FigResilience(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Runs) != 2 {
		t.Fatalf("runs=%d, want shed-off and shed-on arms", len(fig.Runs))
	}
	off, on := fig.Runs[0], fig.Runs[1]
	if off.ShedSLOMultiple != 0 || on.ShedSLOMultiple == 0 {
		t.Fatalf("arm order lost: multiples %g, %g", off.ShedSLOMultiple, on.ShedSLOMultiple)
	}
	if off.Result.Reqs.Shed != 0 {
		t.Fatalf("shed-off arm shed %d requests", off.Result.Reqs.Shed)
	}
	if on.Result.Reqs.Shed == 0 {
		t.Fatal("shed-on arm never shed through a core outage")
	}
	for _, run := range fig.Runs {
		a := run.Result.Reqs
		if a.Issued != a.Completed+a.TimedOut+a.Lost+a.Shed+a.InFlight {
			t.Fatalf("%s: ledger identity broken: %+v", run.Name, a)
		}
		if run.Result.Faults.CoreCrashes != 1 || run.Result.Faults.CoreRecoveries != 1 {
			t.Fatalf("%s: crash schedule did not run: %+v", run.Name, run.Result.Faults)
		}
	}
	if on.CrashP99 >= off.CrashP99 {
		t.Fatalf("shedding did not protect the outage window: P99 %v with vs %v without",
			on.CrashP99, off.CrashP99)
	}
	// Shedding is inert before the crash: the leading buckets agree.
	crashBucket := fig.CrashAtMs / fig.BucketMs
	for i := 0; i < crashBucket && i < len(off.Buckets) && i < len(on.Buckets); i++ {
		if off.Buckets[i] != on.Buckets[i] {
			t.Fatalf("pre-crash bucket %d diverged between arms:\noff: %+v\non:  %+v",
				i, off.Buckets[i], on.Buckets[i])
		}
	}
}

// RenderResilience emits both timelines plus the outage-window footer.
func TestRenderResilienceOutput(t *testing.T) {
	fig, err := new(Harness).FigResilience(Quick)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderResilience(fig)
	for _, want := range []string{"t(ms)", "p99(ms)", "shed", "offline", "survivors"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}
