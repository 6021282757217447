package baselines

import (
	"nmapsim/internal/cpu"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

// PerRequest is a Rubik/µDPM-style short-term DVFS policy used for the
// §5.1 ablation: it recomputes the per-core V/F target from the standing
// queue on every NAPI event, issuing back-to-back transitions. On the
// simulated hardware each of those writes pays the *re-transition*
// latency (hundreds of microseconds on the Xeons of Table 1), so most
// targets take effect long after the request they were computed for —
// exactly the limitation the paper argues makes such policies
// impractical on commodity processors.
type PerRequest struct {
	eng     *sim.Engine
	proc    *cpu.Processor
	kernels []*kernel.CoreKernel
	// Requests counts the V/F targets issued (attempted register
	// writes). Compare with the cores' effected transition counts: on
	// hardware with a ~520µs re-transition latency, back-to-back writes
	// supersede each other and most are never reflected — the §5.1
	// observation that sinks per-request DVFS.
	Requests int64
}

// queuePerStep maps standing-queue depth to speed: the target P-state
// is Pmin - depth/queuePerStep (clamped), so deeper queues demand
// faster states.
const queuePerStep = 2

// NewPerRequest builds the ablation policy.
func NewPerRequest(eng *sim.Engine, proc *cpu.Processor, kernels []*kernel.CoreKernel) *PerRequest {
	return &PerRequest{eng: eng, proc: proc, kernels: kernels}
}

// Start applies the initial floor state.
func (p *PerRequest) Start() { p.proc.RequestAll(p.proc.Model.MaxP()) }

func (p *PerRequest) retarget(coreID int) {
	depth := p.kernels[coreID].SockQLen() + 1
	target := p.proc.Model.MaxP() - depth/queuePerStep
	if target < 0 {
		target = 0
	}
	p.Requests++
	p.proc.Request(coreID, target)
}

// OnNAPI implements kernel.NAPIListener: an interrupt (a new request)
// and a poll batch (the queue drained a bit) each demand a fresh V/F
// decision.
func (p *PerRequest) OnNAPI(e kernel.NAPIEvent) {
	if e.Kind == kernel.InterruptArrived || e.Kind == kernel.PacketsProcessed {
		p.retarget(e.Core)
	}
}
