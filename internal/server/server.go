// Package server assembles the full experimental platform: a processor
// (package cpu), a multi-queue NIC (package nic), the per-core kernel
// instances (package kernel), the bursty client (package workload), the
// client↔server network, and the measurement plumbing (package stats).
// Power-management policies attach on top through small interfaces, so
// the same assembly runs Linux governors, NMAP, and the baselines.
package server

import (
	"errors"
	"fmt"

	"nmapsim/internal/audit"
	"nmapsim/internal/cpu"
	"nmapsim/internal/faults"
	"nmapsim/internal/kernel"
	"nmapsim/internal/nic"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Policy is anything that manages power once the run starts: a governor
// stack, NMAP, or a baseline controller.
type Policy interface {
	Start()
	Stop()
}

// Config describes one experiment run.
type Config struct {
	// Model is the processor; defaults to the Xeon Gold 6134 testbed.
	Model *cpu.Model
	// Seed drives all randomness in the run.
	Seed uint64
	// Profile is the application; defaults to memcached.
	Profile *workload.Profile
	// RPS is the average offered load. If zero, Level is used.
	RPS float64
	// Level picks one of the paper's three loads when RPS is zero.
	Level workload.Level
	// Pattern shapes the bursty arrivals; zero value = DefaultBurst.
	Pattern workload.BurstPattern
	// VariableLevels switches load randomly every SwitchPeriod (Fig 16).
	VariableLevels []float64
	SwitchPeriod   sim.Duration
	// Kernel overrides the kernel cost parameters (zero = defaults).
	Kernel kernel.Config
	// NICRing overrides the Rx ring size (zero = default 512).
	NICRing int
	// ITR overrides the NIC interrupt-throttle period (zero = 10µs).
	ITR sim.Duration
	// Flows overrides the number of client connections (zero = the
	// profile's 40). Together with LumpyRSS, fewer flows make the
	// per-queue spread lumpier — the per-core load imbalance that
	// favours per-core DVFS over chip-wide (§6.3).
	Flows int
	// LumpyRSS switches flow steering from the even round-robin spread
	// of the paper's testbed to a seeded hash with realistic imbalance.
	LumpyRSS bool
	// NetLatency is the one-way client↔server base latency; defaults
	// to 15µs (10GbE through one switch).
	NetLatency sim.Duration
	// NetJitter is the mean of the exponential jitter added per
	// traversal; defaults to 3µs.
	NetJitter sim.Duration
	// Warmup and Duration delimit the measured window; defaults 200ms
	// and 1s. A negative Warmup means "no warmup" (measure from instant
	// zero), mirroring BurstPattern.Ramp's negative-means-zero idiom.
	Warmup, Duration sim.Duration
	// ForceChipWide applies the chip-wide DVFS coordination rule (NCAP).
	ForceChipWide bool
	// DisablePooling turns off request/packet recycling and generator
	// batch pre-sampling — a debug knob for proving the allocation
	// machinery is physics-neutral. A seeded run must produce
	// byte-identical Results with this on or off.
	DisablePooling bool
	// Faults configures deterministic fault injection. The zero value
	// injects nothing and costs nothing: the injector is nil and the
	// datapath draws no extra randomness, so zero-fault physics are
	// byte-identical to a faultless build. The fault schedule is drawn
	// from its own PRNG stream (derived from Seed but independent of
	// the physics streams), so the same Seed+Faults pair reproduces the
	// same schedule byte-for-byte.
	Faults faults.Config
	// Retry configures the client-side timeout/retransmission loop.
	// The zero value disables it (the seed behaviour: a dropped request
	// stays lost).
	Retry workload.RetryConfig
	// SockQCap bounds the per-core socket queue (0 = unlimited).
	SockQCap int
	// ShedSLOMultiple enables SLO-aware load shedding: a fresh request
	// is refused at admission (terminal `Shed` ledger outcome, never
	// silent) when the estimated queueing delay on its target core
	// exceeds this multiple of the profile's SLO. Zero (the default)
	// disables shedding; the admission check then never runs, so
	// existing physics are untouched. Retransmissions are never shed —
	// the client already holds a timer for them.
	ShedSLOMultiple float64
	// MaxEvents arms the engine watchdog: the run aborts with a
	// diagnostic once this many events have fired (0 = unlimited). See
	// Server.Err.
	MaxEvents uint64
	// Audit enables the run-time invariant auditor (package audit): the
	// conservation laws of the datapath are checked at event granularity
	// and at run end, Result carries the Audit report, and Run returns
	// an error when any invariant — including the RequestAccounting
	// identity — is violated. Audited physics are byte-identical to
	// unaudited physics: the hooks add no events, draw no randomness and
	// allocate nothing on the steady-state path.
	Audit bool
	// StreamingHist records response latencies into the bounded
	// streaming-quantile histogram (fixed ~64KB, ~0.1% relative error on
	// quantiles, see stats.StreamRelError) instead of the exact sample
	// recorder. Off by default: exact mode is pinned byte-identical to
	// the seed. Streaming mode never changes physics — only what the
	// measurement substrate reports — but quantiles are bucket midpoints
	// rather than exact order statistics, so figure text rendered from a
	// streaming run is NOT byte-comparable against an exact run.
	StreamingHist bool
}

func (c Config) withDefaults() Config {
	if c.Model == nil {
		c.Model = cpu.XeonGold6134
	}
	if c.Profile == nil {
		c.Profile = workload.Memcached()
	}
	if c.Pattern.Period == 0 {
		if c.Profile.Burst.Period != 0 {
			c.Pattern = c.Profile.Burst
		} else {
			c.Pattern = workload.DefaultBurst()
		}
	}
	if c.RPS == 0 && len(c.VariableLevels) == 0 {
		c.RPS = c.Profile.RPS(c.Level)
	}
	if c.Flows > 0 && c.Flows != c.Profile.Flows {
		clone := *c.Profile
		clone.Flows = c.Flows
		c.Profile = &clone
	}
	if c.NetLatency == 0 {
		c.NetLatency = 15 * sim.Microsecond
	}
	if c.NetJitter == 0 {
		c.NetJitter = 3 * sim.Microsecond
	}
	if c.Warmup == 0 {
		c.Warmup = 200 * sim.Millisecond
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Duration == 0 {
		c.Duration = sim.Duration(sim.Second)
	}
	c.Retry = c.Retry.WithDefaults()
	return c
}

// Validate rejects configurations that would previously have panicked
// deep inside a run (or silently misbehaved) with a descriptive error.
// New applies defaults first, so zero values are always valid.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.NICRing < 0 {
		return fmt.Errorf("server: negative NIC ring size %d (zero selects the default)", c.NICRing)
	}
	if c.ITR < 0 {
		return fmt.Errorf("server: negative ITR %v", c.ITR)
	}
	if c.RPS < 0 {
		return fmt.Errorf("server: negative offered load %g RPS", c.RPS)
	}
	if c.Flows < 0 {
		return fmt.Errorf("server: negative flow count %d", c.Flows)
	}
	if c.NetLatency < 0 || c.NetJitter < 0 {
		return fmt.Errorf("server: negative network latency/jitter %v/%v", c.NetLatency, c.NetJitter)
	}
	if c.Duration < 0 {
		return fmt.Errorf("server: negative measurement duration %v", c.Duration)
	}
	if c.SockQCap < 0 {
		return fmt.Errorf("server: negative socket-queue cap %d", c.SockQCap)
	}
	for _, l := range c.VariableLevels {
		if l < 0 {
			return fmt.Errorf("server: negative variable load level %g", l)
		}
	}
	if len(c.VariableLevels) > 0 && c.SwitchPeriod <= 0 {
		return fmt.Errorf("server: variable levels need a positive switch period, got %v", c.SwitchPeriod)
	}
	if k := c.Kernel; k.PollBudget < 0 || k.MaxPollPasses < 0 || k.SoftirqTimeLimit < 0 ||
		k.IRQCycles < 0 || k.PollOverheadCycles < 0 || k.PerPktCycles < 0 ||
		k.TxCleanCycles < 0 || k.TxCleanBudget < 0 || k.TickPeriod < 0 || k.SockQCap < 0 {
		return fmt.Errorf("server: negative kernel cost parameter in %+v", k)
	}
	if c.ShedSLOMultiple < 0 {
		return fmt.Errorf("server: negative shed SLO multiple %g", c.ShedSLOMultiple)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults.ThrottlePState > c.Model.MaxP() {
		return fmt.Errorf("server: throttle P-state %d out of range for %s (max P%d)",
			c.Faults.ThrottlePState, c.Model.Name, c.Model.MaxP())
	}
	if err := c.Faults.CheckTargets(c.Model.NumCores, 0); err != nil {
		return fmt.Errorf("server: %w of %s", err, c.Model.Name)
	}
	return c.Retry.Validate()
}

// Result summarises one run.
type Result struct {
	// Summary digests the response-time distribution over the measured
	// window.
	Summary stats.Summary
	// Hist is the full response-time histogram.
	Hist *stats.Hist
	// EnergyJ is the package energy over the measured window (RAPL).
	EnergyJ float64
	// AvgPowerW is EnergyJ divided by the window length.
	AvgPowerW float64
	// Completed counts requests finished inside the window.
	Completed uint64
	// Drops counts NIC ring overflows over the whole run.
	Drops uint64
	// SLO echoes the profile's objective; FracOverSLO is the fraction
	// of measured responses exceeding it; Violated is P99 > SLO.
	SLO         sim.Duration
	FracOverSLO float64
	Violated    bool
	// Transitions counts P-state transitions across all cores (whole
	// run), for the re-transition ablations.
	Transitions int64
	// Reqs is the client-side request ledger for the whole run. Its
	// identity — Issued == Completed + TimedOut + Lost + InFlight —
	// must hold at the end of every run: no request is silently lost.
	Reqs RequestAccounting
	// Faults counts the faults actually injected (zero when injection
	// is off).
	Faults faults.Stats
	// SockDrops counts socket-queue overflow drops across cores (only
	// possible with Config.SockQCap set).
	SockDrops uint64
	// PerCore breaks the run down by core (whole-run cumulative).
	PerCore []CoreStats
	// Audit is the invariant auditor's end-of-run report, nil unless
	// Config.Audit is set. Everything else in Result is byte-identical
	// with the auditor on or off.
	Audit *audit.Report `json:",omitempty"`
}

// RequestAccounting is the client-side ledger of every request issued
// over a run (warmup included).
type RequestAccounting struct {
	// Issued counts requests the generator handed to the client.
	Issued uint64
	// Completed counts requests whose first response reached the client.
	Completed uint64
	// Retransmits counts extra transmissions the retry loop sent.
	Retransmits uint64
	// TimedOut counts requests abandoned after the retry budget ran out.
	TimedOut uint64
	// Lost counts requests dropped with no retry budget to recover them
	// (retries disabled).
	Lost uint64
	// Shed counts requests refused by the admission controller
	// (Config.ShedSLOMultiple).
	Shed uint64
	// InFlight counts requests still live when the run ended.
	InFlight uint64
}

// Consistent reports whether the ledger's identity holds.
func (a RequestAccounting) Consistent() bool {
	return a.Issued == a.Completed+a.TimedOut+a.Lost+a.Shed+a.InFlight
}

// CoreStats is the per-core view of a run.
type CoreStats struct {
	Core           int
	Completed      uint64
	PktIntr        uint64
	PktPoll        uint64
	Interrupts     uint64
	KsoftirqdWakes uint64
	BusyFrac       float64
	CC0Frac        float64
	CC6Entries     int64
	EnergyJ        float64
	Transitions    int64
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("p99=%.2fms (SLO %.0fms, violated=%v) energy=%.1fJ power=%.1fW n=%d",
		r.Summary.P99.Millis(), r.SLO.Millis(), r.Violated, r.EnergyJ, r.AvgPowerW, r.Summary.N)
}

// Server is one assembled experiment instance.
type Server struct {
	Cfg     Config
	Eng     *sim.Engine
	Proc    *cpu.Processor
	NIC     *nic.NIC
	Kernels []*kernel.CoreKernel
	Gen     *workload.Generator
	Hist    *stats.Hist

	rng      *sim.RNG
	netRng   *sim.RNG
	measFrom sim.Time
	// measuring is true once the warmup window has elapsed; unlike the
	// old `measFrom > 0` sentinel it is correct even when the
	// measurement window starts at instant 0 (zero warmup).
	measuring bool
	// OnDone observes every completed request (measured window or not),
	// used by Parties' latency feedback and the figure tracers. The
	// request record is recycled as soon as the hook returns, so
	// observers must copy anything they need rather than retain r.
	OnDone func(r *workload.Request)
	// OnFail observes every request that terminally fails (TimedOut,
	// Lost, or Shed), fired after the ledger is settled and before the
	// record is recycled — the cluster router's resteer point. Like
	// OnDone, observers must copy what they need; the record is gone
	// when the hook returns. nil (the default) costs one branch.
	OnFail func(r *workload.Request)

	policy   Policy
	idlePol  kernel.IdlePolicy
	baseline float64 // package energy at warmup end

	// Allocation-free plumbing: the request pool and the callbacks the
	// per-request path schedules against (bound once here instead of
	// closed over per packet). The pool is a pointer so a cluster can
	// point every node at the front-end's free list (SharePool): a
	// request issued by node 0's generator and resteered to node 3 is
	// recycled wherever it terminates.
	reqPool   *workload.RequestPool
	deliverFn func(any)
	respFn    func(any)
	txDoneFn  func(*nic.Packet)

	// Fault injection and client-side recovery. inj is nil when
	// Config.Faults is zero; retry is the defaults-applied retry config.
	inj       *faults.Injector
	retry     workload.RetryConfig
	timeoutFn func(any)
	acct      RequestAccounting
	// aud is the invariant auditor, nil unless Config.Audit is set.
	// Every hook on it is nil-receiver safe, so the datapath calls it
	// unconditionally.
	aud *audit.Auditor
	// live independently counts requests issued but not yet terminal
	// (completed, timed out, lost, or shed). It is tracked on its own
	// rather than derived from the other counters so the
	// accounting-identity test actually cross-checks something.
	live uint64

	// Load-shedding state, precomputed in New so the admission check is
	// pure arithmetic: shedBudgetNs is ShedSLOMultiple × SLO in
	// nanoseconds (0 = shedding off) and shedCostCycles the estimated
	// per-backlogged-request service cost used to turn queue depths into
	// a queueing-delay estimate.
	shedBudgetNs   float64
	shedCostCycles float64

	// Node-level failure domain (driven by a cluster's nodecrash /
	// nodeslow faults, never by the per-core injector). While nodeDown
	// is set the whole assembly is hard-failed: every core is offline,
	// every queue torn down, and per-core recovery events are refused —
	// the node-level fault owns the machine until RecoverNode.
	// nodeOfflines/nodeOnlines count the per-core transitions CrashNode/
	// RecoverNode drove, so the auditor's offline-mirror cross-checks
	// still balance when the injector's own CoreCrashes counter was not
	// involved.
	nodeDown                  bool
	nodeSlow                  bool
	nodeOfflines, nodeOnlines uint64
}

// failureAware is the optional policy extension the server notifies
// about hard-fault transitions: failure-aware policies (the governor
// stack, NMAP) stop driving dead cores and restart their mode decision
// with fresh counters on adoptive ones. Policies that don't implement it
// keep working — the processor refuses to apply their requests to
// offline cores.
type failureAware interface {
	CoreOffline(core int)
	CoreOnline(core int)
	CoreAdopted(core int)
}

// New assembles a server on its own fresh engine. The idle policy
// applies to every core; pass nil for always-CC0.
func New(cfg Config, idle kernel.IdlePolicy) *Server {
	return NewOnEngine(cfg, idle, sim.NewEngine())
}

// NewOnEngine assembles a server on a caller-supplied engine — the seam
// the cluster assembly uses to put every node's physics on one calendar
// queue. Construction order (and therefore every PRNG fork) is
// identical to New, so a single node built this way is byte-identical
// to a plain New server with the same config.
func NewOnEngine(cfg Config, idle kernel.IdlePolicy, eng *sim.Engine) *Server {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	s := &Server{
		Cfg:     cfg,
		Eng:     eng,
		rng:     rng,
		netRng:  rng.Fork(),
		idlePol: idle,
	}
	if cfg.StreamingHist {
		s.Hist = stats.NewStreamingHist()
	} else {
		s.Hist = stats.NewHist(HistCapacity(cfg))
	}
	s.Proc = cpu.NewProcessor(cfg.Model, eng, rng.Fork())
	s.Proc.ForceChipWide = cfg.ForceChipWide
	ncfg := nic.DefaultConfig(cfg.Model.NumCores)
	if cfg.NICRing > 0 {
		ncfg.RingSize = cfg.NICRing
	}
	if cfg.ITR > 0 {
		ncfg.ITR = cfg.ITR
	}
	ncfg.HashRSS = cfg.LumpyRSS
	s.NIC = nic.New(ncfg, eng, rng.Uint64())
	s.reqPool = &workload.RequestPool{}
	if cfg.DisablePooling {
		s.NIC.DisablePooling()
		s.reqPool.Disable()
	}
	s.deliverFn = func(a any) { s.NIC.Deliver(a.(*nic.Packet)) }
	s.respFn = s.respond
	s.txDoneFn = s.txDone
	s.timeoutFn = s.onTimeout
	s.retry = cfg.Retry
	// The fault schedule draws from its own stream, derived from the
	// seed but independent of every physics stream (the xor constant is
	// the golden-ratio mix used by the RSS hash). Forking the main rng
	// instead would shift all later physics draws and break the
	// zero-fault byte-identity guarantee.
	if cfg.Faults.Enabled() {
		s.inj = faults.New(cfg.Faults, sim.NewRNG(cfg.Seed^0x9e3779b97f4a7c15))
		s.NIC.SetInjector(s.inj)
	}
	if cfg.MaxEvents > 0 {
		eng.SetWatchdog(cfg.MaxEvents, 0)
	}
	s.NIC.OnRxDrop = s.onRxDrop
	if cfg.Audit {
		s.aud = audit.New(eng, cfg.Model.NumCores, cfg.Model.MaxP(), cfg.Model.MaxPowerW())
		s.Proc.SetAuditor(s.aud)
		s.NIC.SetAuditor(s.aud)
	}
	kcfg := cfg.Kernel
	if cfg.SockQCap > 0 && kcfg.SockQCap == 0 {
		kcfg.SockQCap = cfg.SockQCap
	}
	for i, c := range s.Proc.Cores {
		k := kernel.NewCoreKernel(i, eng, c, s.NIC, kcfg, idle)
		k.OnAppComplete = s.complete
		k.OnDrop = s.dropCopy
		k.SetAuditor(s.aud)
		s.Kernels = append(s.Kernels, k)
	}
	if cfg.ShedSLOMultiple > 0 {
		s.shedBudgetNs = cfg.ShedSLOMultiple * float64(cfg.Profile.SLO)
		per := kcfg.PerPktCycles
		if per == 0 {
			per = kernel.DefaultConfig().PerPktCycles
		}
		s.shedCostCycles = cfg.Profile.MeanAppCycles + per
	}
	s.Gen = &workload.Generator{
		Eng:             eng,
		RNG:             rng.Fork(),
		Profile:         cfg.Profile,
		Pattern:         cfg.Pattern,
		RPS:             cfg.RPS,
		VariableLevels:  cfg.VariableLevels,
		SwitchPeriod:    cfg.SwitchPeriod,
		Deliver:         s.ingress,
		Pool:            s.reqPool,
		DisableBatching: cfg.DisablePooling,
	}
	return s
}

// HistCapacity is the sample count the exact recorder of one run of cfg
// is preallocated for: offered load × measured window plus headroom for
// the tail, so steady-state recording never regrows the store. Capacity
// is physics-neutral: it changes when the backing array is allocated,
// never what is recorded in it.
func HistCapacity(cfg Config) int {
	cfg = cfg.withDefaults()
	rps := cfg.RPS
	for _, l := range cfg.VariableLevels {
		if l > rps {
			rps = l
		}
	}
	n := rps * float64(cfg.Duration) / 1e9 * 1.25
	switch {
	case n < 1<<12:
		return 1 << 12
	case n > 1<<22:
		return 1 << 22
	}
	return int(n)
}

// EstimatedHistBytes projects the exact-mode recorder's backing-array
// footprint for one run of cfg — the dominant per-cell allocation of a
// big sweep. The harness memory watermark compares this projection,
// scaled by its worker count, against its soft budget to decide when to
// downgrade fresh cells to the bounded streaming recorder. It charges
// 8 bytes per sample, the worst case: a recorder keeps 2-byte samples
// until one falls outside [0, 2^32) ns and widens to 8 bytes only then
// (a 4M-sample cell holds at most 8MB, or 32MB widened). The real cost
// is lower still: a key past 32,768 samples turns into a table of
// per-nanosecond counts in the same 64 KB, so a cell whose latencies
// crowd a few 65.5 µs keys holds a few hundred KB whatever its sample
// count. Charging the worst case keeps
// the watermark's decisions independent of the store's form; what to
// charge instead is an open item (ROADMAP item 8).
// The projection depends only on the configuration, never on allocator
// state, so the decision is deterministic and a resumed sweep makes the
// same one.
func EstimatedHistBytes(cfg Config) int64 {
	return int64(HistCapacity(cfg)) * 8
}

// AttachPolicy installs the power-management policy; it will be started
// when Run begins.
func (s *Server) AttachPolicy(p Policy) { s.policy = p }

// Policy returns the attached power-management policy (nil if none).
func (s *Server) Policy() Policy { return s.policy }

// AddListener attaches a NAPI listener to every core kernel.
func (s *Server) AddListener(l kernel.NAPIListener) {
	for _, k := range s.Kernels {
		k.AddListener(l)
	}
}

// netDelay samples one network traversal.
func (s *Server) netDelay() sim.Duration {
	return s.Cfg.NetLatency + s.netRng.ExpDur(s.Cfg.NetJitter)
}

// Ingress carries a request over the network into the NIC — the entry
// point custom generators (e.g. workload.Replayer) drive instead of the
// built-in burst generator.
func (s *Server) Ingress(r *workload.Request) { s.ingress(r) }

// ingress books a freshly generated request into the client ledger and
// sends its first copy — unless the admission controller sheds it.
func (s *Server) ingress(r *workload.Request) {
	s.acct.Issued++
	s.live++
	if s.shedBudgetNs > 0 && s.shouldShed(r) {
		r.Shed = true
		s.acct.Shed++
		s.live--
		s.aud.Count(audit.Shed, 1)
		if s.OnFail != nil {
			s.OnFail(r)
		}
		s.maybeRecycle(r)
		return
	}
	s.send(r)
}

// shouldShed estimates the queueing delay r would face on its target
// core — backlog (ring + socket queue + app in flight) times the mean
// per-request service cost at the core's current frequency — and sheds
// when it exceeds the configured SLO multiple. Pure arithmetic over
// state already in memory: no randomness, no allocation.
func (s *Server) shouldShed(r *workload.Request) bool {
	q := s.NIC.QueueFor(r.Flow)
	k := s.Kernels[q]
	backlog := s.NIC.QueueLen(q) + k.SockQLen() + k.AppInFlight()
	if backlog == 0 {
		return false
	}
	estNs := float64(backlog) * s.shedCostCycles / s.Proc.Cores[q].FreqGHz()
	return estNs > s.shedBudgetNs
}

// send transmits one copy of r over the network into the NIC: arm the
// retransmission timeout (when the retry loop is on), then either lose
// the copy on the wire (injected) or schedule the network hop. The
// packet record comes from the NIC's pool and the hop is scheduled
// against the bound deliver callback, so the steady-state path
// allocates nothing.
func (s *Server) send(r *workload.Request) {
	s.aud.Count(audit.ClientSend, 1)
	r.Attempts++
	if s.retry.Enabled() {
		r.Timer = s.Eng.ScheduleArg(s.retry.RTO(r.Attempts), s.timeoutFn, r)
	}
	r.Pending++
	if s.inj.DropWire() {
		s.aud.Count(audit.WireDropReq, 1)
		s.dropCopy(r)
		return
	}
	p := s.NIC.GetPacket()
	p.ID = r.ID
	p.Flow = r.Flow
	p.Sent = r.Sent
	p.Payload = r
	s.Eng.ScheduleArg(s.netDelay(), s.deliverFn, p)
}

// onTimeout fires when a request's retransmission timeout expires:
// retransmit with backoff while budget remains, otherwise give up and
// mark the request timed out. Copies still inside the datapath keep the
// record alive until they drain.
func (s *Server) onTimeout(a any) {
	r := a.(*workload.Request)
	r.Timer = sim.Event{}
	if r.Done != 0 {
		return // completed; the response cancelled the timer anyway
	}
	if r.Attempts > s.retry.MaxRetries {
		r.TimedOut = true
		s.acct.TimedOut++
		s.live--
		if s.OnFail != nil {
			s.OnFail(r)
		}
		s.maybeRecycle(r)
		return
	}
	s.acct.Retransmits++
	s.send(r)
}

// onRxDrop is the NIC's ring-overflow hook: the packet's in-flight copy
// is gone, so account for it instead of leaking the request record.
func (s *Server) onRxDrop(p *nic.Packet) {
	if p.Payload != nil {
		s.dropCopy(p.Payload)
	}
}

// dropCopy records that one in-flight copy of r was destroyed (wire
// loss, Rx ring overflow, or socket-queue overflow). With no retry
// timer armed and no other copy in flight the request is lost for good.
func (s *Server) dropCopy(r *workload.Request) {
	r.Pending--
	if r.Done == 0 && !r.TimedOut && !r.Lost &&
		r.Pending == 0 && !r.Timer.Pending() {
		r.Lost = true
		s.acct.Lost++
		s.live--
		if s.OnFail != nil {
			s.OnFail(r)
		}
	}
	s.maybeRecycle(r)
}

// maybeRecycle returns r to the pool once it is terminal (completed,
// timed out, lost, or shed), no copy is still inside the datapath, and
// no timer could resurrect it — the pool's terminal recycle point.
func (s *Server) maybeRecycle(r *workload.Request) {
	if r.Pending == 0 && !r.Timer.Pending() &&
		(r.Done != 0 || r.TimedOut || r.Lost || r.Shed) {
		s.reqPool.Put(r)
	}
}

// complete is the app-thread completion hook: transmit the response
// (all of its MTU segments, whose Tx completions feed back into NAPI)
// and record the client-observed latency after the last segment plus
// the return network traversal.
func (s *Server) complete(r *workload.Request) {
	q := s.NIC.QueueFor(r.Flow)
	segs := s.Cfg.Profile.TxSegments
	p := s.NIC.GetPacket()
	p.ID = r.ID
	p.Flow = r.Flow
	p.Payload = r
	s.NIC.Transmit(q, p, segs, s.txDoneFn)
}

// txDone fires when the response's last segment leaves the NIC: the Tx
// packet record goes back to the pool and the request rides the return
// network traversal to the client — unless the wire loses the response.
func (s *Server) txDone(p *nic.Packet) {
	r := p.Payload
	s.aud.Count(audit.TxDone, 1)
	s.NIC.PutPacket(p)
	if s.inj.DropWire() {
		s.aud.Count(audit.WireDropResp, 1)
		s.dropCopy(r)
		return
	}
	s.aud.Count(audit.RespSched, 1)
	s.Eng.ScheduleArg(s.netDelay(), s.respFn, r)
}

// respond is the client-side arrival of one response copy. The first
// response wins: it records the latency, cancels the retransmission
// timer, and informs OnDone. Responses to retransmitted copies of an
// already-answered (or abandoned) request just drain. The record is
// recycled once the last copy is gone.
func (s *Server) respond(a any) {
	r := a.(*workload.Request)
	s.aud.Count(audit.RespArrived, 1)
	r.Pending--
	if r.Done == 0 && !r.TimedOut && !r.Lost {
		r.Done = s.Eng.Now()
		r.Timer.Cancel()
		s.acct.Completed++
		s.live--
		if s.measuring {
			s.Hist.Add(r.Latency())
		}
		if s.OnDone != nil {
			s.OnDone(r)
		}
	}
	s.maybeRecycle(r)
}

// Start arms the kernels, the policy and the generator without running
// the clock (used by experiments that drive the engine manually).
func (s *Server) Start() {
	s.StartNode()
	s.Gen.Start()
}

// StartNode arms everything except the traffic generator: kernels,
// policy, and the per-core fault schedule. A cluster starts every node
// this way and then starts exactly one generator (node 0's, rewired
// through the router), so the offered load is generated once for the
// whole fleet. Node-level faults (nodecrash/nodeslow) are never armed
// here — they belong to the cluster, which owns the node lifecycle.
func (s *Server) StartNode() {
	for _, k := range s.Kernels {
		k.Start()
	}
	if s.policy != nil {
		s.policy.Start()
	}
	// Transient throttle events clamp a core's P-state on top of
	// whatever the policy requests; ThrottlePState 0 resolves to the
	// model's slowest state.
	pstate := s.inj.Config().ThrottlePState
	if pstate == 0 {
		pstate = s.Cfg.Model.MaxP()
	}
	s.inj.StartThrottler(s.Eng, s.Cfg.Model.NumCores, pstate, s.Proc.Throttle, s.Proc.Unthrottle)
	s.inj.StartHardFaults(s.Eng, s.crashCore, s.recoverCore, s.stallQueue, s.unstallQueue)
}

// crashCore hard-fails one core end to end: the kernel settles (in-
// flight work fails into the ledger, the socket backlog is handed off),
// the NIC queue is torn down and its ring failed, the CPU core goes
// offline C-state-legally, the RSS re-steer table sends the dead
// queue's flows to the next survivor — which adopts the stranded
// backlog — and a failure-aware policy is told to stop driving the
// core. The last online core never dies: a cluster that loses every
// node is outside this model's scope.
func (s *Server) crashCore(core int) bool {
	if core < 0 || core >= len(s.Kernels) {
		return false
	}
	if s.Proc.IsOffline(core) || s.Proc.OnlineCount() <= 1 {
		return false
	}
	stranded := s.Kernels[core].Crash()
	s.NIC.OfflineQueue(core)
	s.Proc.Offline(core)
	fa, aware := s.policy.(failureAware)
	if aware {
		fa.CoreOffline(core)
	}
	adopt := s.NIC.NextOnlineQueue(core)
	s.Kernels[adopt].Adopt(stranded)
	if aware {
		fa.CoreAdopted(adopt)
	}
	return true
}

// recoverCore brings a crashed core back: the CPU core comes online
// (cold caches — the CC6 flush penalty applies), the kernel re-enters
// its idle loop, the RSS table steers the core's flows home again, and
// a failure-aware policy restarts its mode decision with fresh
// counters. Returns whether the core actually came back: a core that a
// node-level crash swept up (or that RecoverNode already restored) is
// not this event's to recover, and the injector only counts recoveries
// that took effect.
func (s *Server) recoverCore(core int) bool {
	if core < 0 || core >= len(s.Kernels) || !s.Proc.IsOffline(core) {
		return false
	}
	if s.nodeDown {
		return false
	}
	s.Proc.Online(core)
	s.Kernels[core].Recover()
	s.NIC.OnlineQueue(core)
	if fa, ok := s.policy.(failureAware); ok {
		fa.CoreOnline(core)
	}
	return true
}

// stallQueue wedges one Rx ring (the queuestall hard fault).
func (s *Server) stallQueue(q int) bool {
	if q < 0 || q >= s.Cfg.Model.NumCores {
		return false
	}
	return s.NIC.StallQueue(q)
}

// unstallQueue lifts a ring stall.
func (s *Server) unstallQueue(q int) {
	if q < 0 || q >= s.Cfg.Model.NumCores {
		return
	}
	s.NIC.UnstallQueue(q)
}

// CrashNode hard-fails the whole assembly — the node-level failure
// domain a cluster's nodecrash fault drives. Every online core goes
// through the full crash choreography, but unlike a core crash there
// is no survivor to adopt the stranded socket backlogs: they fail into
// the ledger on the spot (kernel.AbandonBacklog), and packets still
// riding the network land on an all-queues-offline NIC, which fails
// them with an explicit outage reason. Reports false when the node is
// already down.
func (s *Server) CrashNode() bool {
	if s.nodeDown {
		return false
	}
	s.nodeDown = true
	fa, aware := s.policy.(failureAware)
	for core := range s.Kernels {
		if s.Proc.IsOffline(core) {
			continue
		}
		stranded := s.Kernels[core].Crash()
		s.Kernels[core].AbandonBacklog(stranded)
		s.NIC.OfflineQueue(core)
		s.Proc.Offline(core)
		if aware {
			fa.CoreOffline(core)
		}
		s.nodeOfflines++
	}
	return true
}

// RecoverNode reboots a crashed node: every offline core comes back
// (including any that a per-core crash had taken down before the node
// died — a reboot restores the whole machine). Reports false when the
// node is not down.
func (s *Server) RecoverNode() bool {
	if !s.nodeDown {
		return false
	}
	s.nodeDown = false
	fa, aware := s.policy.(failureAware)
	for core := range s.Kernels {
		if !s.Proc.IsOffline(core) {
			continue
		}
		s.Proc.Online(core)
		s.Kernels[core].Recover()
		s.NIC.OnlineQueue(core)
		if aware {
			fa.CoreOnline(core)
		}
		s.nodeOnlines++
	}
	return true
}

// NodeDown reports whether a node-level crash currently holds the
// assembly offline — the cluster health prober's probe target.
func (s *Server) NodeDown() bool { return s.nodeDown }

// SlowNode clamps every core to the slowest P-state whose frequency
// ratio to P0 still covers factor (a nodeslow fault: thermal event,
// noisy neighbour, failed fan). The clamp rides the same single-slot
// per-core mechanism as the throttle fault — last writer wins, which
// matches how a BIOS-level clamp and a transient throttle would fight
// on real hardware. Reports false when the node is already slowed or
// down.
func (s *Server) SlowNode(factor float64) bool {
	if s.nodeSlow || s.nodeDown {
		return false
	}
	s.nodeSlow = true
	m := s.Cfg.Model
	p := m.MaxP()
	for i := 1; i <= m.MaxP(); i++ {
		if m.FreqAt(0)/m.FreqAt(i) >= factor {
			p = i
			break
		}
	}
	for core := range s.Kernels {
		s.Proc.Throttle(core, p)
	}
	return true
}

// RestoreSpeed lifts a SlowNode clamp. Reports false when no clamp is
// in place.
func (s *Server) RestoreSpeed() bool {
	if !s.nodeSlow {
		return false
	}
	s.nodeSlow = false
	for core := range s.Kernels {
		s.Proc.Unthrottle(core)
	}
	return true
}

// Pool returns the request free list this server recycles into.
func (s *Server) Pool() *workload.RequestPool { return s.reqPool }

// SharePool points this server (and its generator) at another
// assembly's request pool, so records issued on one node and resteered
// to another are recycled wherever they terminate. Call before Start.
func (s *Server) SharePool(p *workload.RequestPool) {
	s.reqPool = p
	s.Gen.Pool = p
}

// Accounting returns the client ledger as of now, with InFlight filled
// in — the live view timeline tracers sample mid-run.
func (s *Server) Accounting() RequestAccounting {
	a := s.acct
	a.InFlight = s.live
	return a
}

// Err reports why the run aborted early (the engine watchdog tripped or
// the harness cancelled it), or nil for a clean run.
func (s *Server) Err() error { return s.Eng.Err() }

// Auditor returns the run-time invariant auditor (nil unless
// Config.Audit is set) — exposed so tests can reach its corruption
// hooks and violation log.
func (s *Server) Auditor() *audit.Auditor { return s.aud }

// Run executes warmup + measurement and returns the result. The error
// is non-nil when the run aborted early (engine watchdog) or, with
// Config.Audit set, when any audited invariant — including the
// RequestAccounting identity — was violated. The Result is valid either
// way: an aborted or inconsistent run still summarises whatever
// happened before the fault.
func (s *Server) Run() (Result, error) {
	s.Start()
	s.Eng.Run(sim.Time(s.Cfg.Warmup))
	s.BeginMeasurement()
	end := sim.Time(s.Cfg.Warmup + s.Cfg.Duration)
	s.Eng.Run(end)
	res := s.Collect()
	return res, errors.Join(s.Eng.Err(), res.Audit.Err())
}

// BeginMeasurement opens the measured window as of now: latencies start
// recording and the energy baseline is taken. Run calls it at warmup
// end; a cluster calls it on every node at the same instant.
func (s *Server) BeginMeasurement() {
	s.measFrom = s.Eng.Now()
	s.measuring = true
	s.baseline = s.Proc.PackageEnergyJ()
}

// Collect summarises the measured window (Run calls it; experiments that
// drive the engine manually may call it directly).
func (s *Server) Collect() Result {
	energy := s.Proc.PackageEnergyJ() - s.baseline
	window := float64(s.Eng.Now()-s.measFrom) / 1e9
	sum := s.Hist.Summarize()
	var completed, sockDrops uint64
	for _, k := range s.Kernels {
		completed += k.Counters().Completed
		sockDrops += k.Counters().SockDrops
	}
	reqs := s.acct
	reqs.InFlight = s.live
	res := Result{
		Summary:     sum,
		Hist:        s.Hist,
		EnergyJ:     energy,
		Completed:   completed,
		Drops:       s.NIC.TotalDrops(),
		SLO:         s.Cfg.Profile.SLO,
		FracOverSLO: 1 - s.Hist.FracLE(s.Cfg.Profile.SLO),
		Violated:    sum.P99 > s.Cfg.Profile.SLO,
		Reqs:        reqs,
		Faults:      s.inj.Stats(),
		SockDrops:   sockDrops,
	}
	if window > 0 {
		res.AvgPowerW = energy / window
	}
	var final audit.Final
	for i, c := range s.Proc.Cores {
		res.Transitions += c.Transitions()
		acct := c.Snapshot()
		kc := s.Kernels[i].Counters()
		elapsed := float64(s.Eng.Now())
		cs := CoreStats{
			Core:           i,
			Completed:      kc.Completed,
			PktIntr:        kc.PktIntr,
			PktPoll:        kc.PktPoll,
			Interrupts:     kc.Interrupts,
			KsoftirqdWakes: kc.KsoftirqdWakes,
			CC6Entries:     acct.CC6Entries,
			EnergyJ:        acct.EnergyJ,
			Transitions:    c.Transitions(),
		}
		if elapsed > 0 {
			cs.BusyFrac = float64(acct.BusyNs) / elapsed
			cs.CC0Frac = float64(acct.CC0Ns) / elapsed
		}
		res.PerCore = append(res.PerCore, cs)
		if s.aud != nil {
			final.CoreBusyNs = append(final.CoreBusyNs, acct.BusyNs)
			final.CoreCC0Ns = append(final.CoreCC0Ns, acct.CC0Ns)
			final.CoreCC6 = append(final.CoreCC6, acct.CC6Entries)
			final.CoreTrans = append(final.CoreTrans, c.Transitions())
			final.CoreEnergyJ = append(final.CoreEnergyJ, acct.EnergyJ)
		}
	}
	if s.aud != nil {
		final.Issued = reqs.Issued
		final.Completed = reqs.Completed
		final.Retransmits = reqs.Retransmits
		final.TimedOut = reqs.TimedOut
		final.Lost = reqs.Lost
		final.Shed = reqs.Shed
		final.InFlight = reqs.InFlight
		final.KernelCompleted = completed
		final.NICDrops = res.Drops
		final.KernelSockDrops = sockDrops
		final.FaultWireDrops = res.Faults.WireDrops
		final.CrashRingFails = s.NIC.TotalCrashFails()
		var kcf uint64
		for _, k := range s.Kernels {
			kcf += k.Counters().CrashFails
		}
		final.KernelCrashFails = kcf
		final.NICOutageFails = s.NIC.TotalOutageFails()
		final.OfflineCores = uint64(s.Proc.OfflineCount())
		// Node-level crashes drive per-core offline/online transitions
		// outside the injector's own counters; fold them in so the
		// auditor's offline-mirror identities balance either way.
		final.CoreCrashes = res.Faults.CoreCrashes + s.nodeOfflines
		final.CoreRecoveries = res.Faults.CoreRecoveries + s.nodeOnlines
		final.PackageEnergyJ = energy + s.baseline
		final.BaselineEnergyJ = s.baseline
		for q := 0; q < s.Cfg.Model.NumCores; q++ {
			final.RingResidual += uint64(s.NIC.QueueLen(q))
			final.TxPendingResidual += uint64(s.NIC.TxPending(q))
		}
		for _, k := range s.Kernels {
			final.SockQResidual += uint64(k.SockQLen())
			final.AppResidual += uint64(k.AppInFlight())
			final.PollResidual += uint64(k.PollInFlight())
		}
		res.Audit = s.aud.Finalize(final)
	}
	return res
}

// MeasuredFrom returns the start of the measurement window (zero until
// warmup completes).
func (s *Server) MeasuredFrom() sim.Time { return s.measFrom }

// RequestPoolSize returns the number of idle pooled request records —
// bounded by the peak number of requests simultaneously in flight.
func (s *Server) RequestPoolSize() int { return s.reqPool.Size() }
