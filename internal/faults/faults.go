// Package faults is the deterministic fault-injection subsystem of the
// reproduction. Every injectable fault — wire packet loss, lost or late
// interrupts, DMA jitter, transient per-core frequency throttling — is
// drawn from a dedicated seeded PRNG inside simulation-event order, so
// the same seed and the same fault configuration reproduce the same
// fault schedule byte-for-byte regardless of harness parallelism.
//
// The zero-cost contract: a nil *Injector (or one built from a zero
// Config) never touches its PRNG and never allocates, so the zero-fault
// datapath is byte-identical to a build without the package. Datapath
// code therefore calls the decision methods unconditionally; each is
// nil-receiver-safe and returns the "no fault" answer immediately when
// the corresponding knob is off.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"nmapsim/internal/sim"
)

// Config enables and parameterises each fault class. The zero value
// injects nothing.
type Config struct {
	// WireLossProb is the probability that one network traversal (a
	// client→server request or a server→client response) silently loses
	// the packet. Recovery is the client's retry loop.
	WireLossProb float64
	// IRQLossProb is the probability that a raised NIC interrupt never
	// reaches the core (a lost MSI write). The queue keeps its IRQ
	// unmasked, so a later packet arrival — typically a client
	// retransmission — re-raises it.
	IRQLossProb float64
	// IRQJitter is the mean of the exponential extra delay added to
	// every interrupt delivery (late interrupts). Zero adds none.
	IRQJitter sim.Duration
	// DMAJitter is the mean of the exponential extra latency added to
	// every packet's wire-to-ring DMA. Zero adds none.
	DMAJitter sim.Duration
	// ThrottleRate is the mean rate, in events per second of simulated
	// time, of transient thermal-style throttle events. Each event
	// clamps one uniformly chosen core to ThrottlePState (or slower)
	// for an exponentially distributed duration. Zero disables.
	ThrottleRate float64
	// ThrottleDuration is the mean duration of one throttle event;
	// defaults to 10ms when ThrottleRate is set and this is zero.
	ThrottleDuration sim.Duration
	// ThrottlePState is the P-state index throttled cores are clamped
	// to (they may run slower, never faster). Zero clamps to the
	// model's slowest state; the server assembly resolves that index.
	ThrottlePState int
	// CoreCrashes schedules hard core failures: at each entry's instant
	// the named core goes offline (C-state-legal teardown, RSS
	// re-steer, NAPI drain) and, if the entry carries a duration, comes
	// back online that much later. Scheduled hard faults draw nothing
	// from the PRNG, so a config with only hard faults armed past the
	// run horizon is physics-identical to a faultless run.
	CoreCrashes []CoreCrash
	// QueueStalls schedules stuck Rx rings: the queue stops raising
	// interrupts and returning polled packets for the stall window (DMA
	// keeps landing packets, so the ring fills and overflows honestly).
	QueueStalls []QueueStall
	// NodeCrashes schedules whole-node hard failures: at each entry's
	// instant the named cluster node loses every core at once and, if
	// the entry carries a duration, reboots that much later. Meaningful
	// only to a cluster assembly — a single server carries them in its
	// config but never arms them (the cluster owns the node lifecycle).
	// Like the other scheduled hard faults they draw nothing from the
	// PRNG.
	NodeCrashes []NodeCrash
	// NodeSlows schedules whole-node slowdown windows: every core of the
	// named node is clamped to the slowest P-state covering the factor
	// (a thermal event or failed fan at node scale) for the window.
	NodeSlows []NodeSlow
	// Partitions schedules interconnect cuts between the cluster front
	// end and a node — full (both legs) or asymmetric one-way cuts.
	// Copies in flight on a cut leg are dropped, silently: the front end
	// only learns through its own probes, hedges and timeouts. Cluster
	// runs only; like the other scheduled hard faults they draw nothing
	// from the PRNG.
	Partitions []Partition
	// LinkSlows schedules link-degradation windows: every traversal of
	// the named node's link is stretched by the factor (gray failure —
	// the node itself stays healthy).
	LinkSlows []LinkSlow
	// LinkLosses schedules lossy-link windows: each traversal of the
	// named node's link is dropped with the given probability, drawn
	// from the fabric's own side stream.
	LinkLosses []LinkLoss
}

// LinkDir selects which leg(s) of a front-end↔node link a partition
// severs.
type LinkDir uint8

// The three partition shapes.
const (
	// LinkBoth cuts both legs — a full partition of the node.
	LinkBoth LinkDir = iota
	// LinkTx cuts the front-end→node leg only: requests blackhole while
	// responses still flow.
	LinkTx
	// LinkRx cuts the node→front-end leg only: the node keeps serving
	// but the front end never hears — the classic gray failure.
	LinkRx
)

// Partition schedules one interconnect cut.
type Partition struct {
	// Node is the cluster node whose link is cut.
	Node int
	// Dir selects the severed leg(s).
	Dir LinkDir
	// At is the simulated instant the cut fires.
	At sim.Duration
	// Duration is how long the cut holds; zero means the partition is
	// permanent for the rest of the run.
	Duration sim.Duration
}

// LinkSlow schedules one link-degradation window.
type LinkSlow struct {
	// Node is the cluster node whose link degrades.
	Node int
	// At is the simulated instant the degradation begins.
	At sim.Duration
	// Duration is the degradation window (always bounded).
	Duration sim.Duration
	// Factor stretches every traversal's delay. Must be > 1.
	Factor float64
}

// LinkLoss schedules one lossy-link window.
type LinkLoss struct {
	// Node is the cluster node whose link turns lossy.
	Node int
	// At is the simulated instant the loss window begins.
	At sim.Duration
	// Duration is the loss window (always bounded).
	Duration sim.Duration
	// Prob is the per-traversal drop probability, in (0, 1).
	Prob float64
}

// NodeCrash schedules one whole-node hard failure.
type NodeCrash struct {
	// Node is the cluster node that dies.
	Node int
	// At is the simulated instant the crash fires.
	At sim.Duration
	// Duration is how long the node stays down; zero means the crash is
	// permanent for the rest of the run.
	Duration sim.Duration
}

// NodeSlow schedules one whole-node slowdown window.
type NodeSlow struct {
	// Node is the cluster node that slows.
	Node int
	// At is the simulated instant the slowdown begins.
	At sim.Duration
	// Duration is the slowdown window (always bounded).
	Duration sim.Duration
	// Factor is the frequency ratio to cover: 2 clamps the node to the
	// slowest P-state at or above half of P0's frequency. Must be > 1.
	Factor float64
}

// CoreCrash schedules one hard core failure.
type CoreCrash struct {
	// Core is the core (== RSS queue) that dies.
	Core int
	// At is the simulated instant the crash fires.
	At sim.Duration
	// Duration is how long the core stays offline; zero means the crash
	// is permanent for the rest of the run.
	Duration sim.Duration
}

// QueueStall schedules one stuck-Rx-ring window.
type QueueStall struct {
	// Queue is the Rx queue that sticks.
	Queue int
	// At is the simulated instant the stall begins.
	At sim.Duration
	// Duration is the stall window (always bounded: a permanent stall
	// is a core crash without the recovery story, spelled corecrash).
	Duration sim.Duration
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.WireLossProb > 0 || c.IRQLossProb > 0 ||
		c.IRQJitter > 0 || c.DMAJitter > 0 || c.ThrottleRate > 0 ||
		len(c.CoreCrashes) > 0 || len(c.QueueStalls) > 0 ||
		len(c.NodeCrashes) > 0 || len(c.NodeSlows) > 0 || c.LinkFaults()
}

// LinkFaults reports whether any interconnect fault is scheduled; the
// cluster uses it to decide whether the fabric machinery must be armed
// even when the fabric model itself is configured at zero cost.
func (c Config) LinkFaults() bool {
	return len(c.Partitions) > 0 || len(c.LinkSlows) > 0 || len(c.LinkLosses) > 0
}

// Validate rejects out-of-range parameters with a descriptive error.
func (c Config) Validate() error {
	if c.WireLossProb < 0 || c.WireLossProb >= 1 {
		return fmt.Errorf("faults: wire loss probability %g outside [0, 1)", c.WireLossProb)
	}
	if c.IRQLossProb < 0 || c.IRQLossProb >= 1 {
		return fmt.Errorf("faults: IRQ loss probability %g outside [0, 1)", c.IRQLossProb)
	}
	if c.IRQJitter < 0 {
		return fmt.Errorf("faults: negative IRQ jitter %v", c.IRQJitter)
	}
	if c.DMAJitter < 0 {
		return fmt.Errorf("faults: negative DMA jitter %v", c.DMAJitter)
	}
	if c.ThrottleRate < 0 {
		return fmt.Errorf("faults: negative throttle rate %g", c.ThrottleRate)
	}
	if c.ThrottleDuration < 0 {
		return fmt.Errorf("faults: negative throttle duration %v", c.ThrottleDuration)
	}
	if c.ThrottlePState < 0 {
		return fmt.Errorf("faults: negative throttle P-state %d", c.ThrottlePState)
	}
	for _, k := range classes {
		for _, e := range k.list(&c) {
			if err := k.check(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckTargets rejects scheduled faults aimed past the assembly: core and
// queue targets against a server's cores, node and link targets against
// a fleet's nodes (a zero bound skips them), and permanent core crashes
// that would leave no distinct core alive. Callers prefix the error.
func (c Config) CheckTargets(cores, nodes int) error {
	dead := map[int]bool{} // the server skips an already-dead core: count distinct ones
	for _, k := range classes {
		bound := cores
		if k.noun == "node" {
			bound = nodes
		}
		if bound == 0 {
			continue
		}
		for _, e := range k.list(&c) {
			if e.target >= bound {
				return fmt.Errorf("%s %s %d out of range for %d %ss", k.key, k.noun, e.target, bound, k.noun)
			}
			if k == coreCrashes && e.dur == 0 {
				dead[e.target] = true
			}
		}
	}
	if cores > 0 && len(dead) >= cores {
		return fmt.Errorf("%d permanent core crashes would kill all %d cores", len(dead), cores)
	}
	return nil
}

// Stats counts the faults actually injected over a run. It is part of
// server.Result, so fault schedules participate in the byte-for-byte
// determinism regression gates.
type Stats struct {
	// WireDrops counts packets lost on the wire (both directions).
	WireDrops uint64
	// IRQsLost counts interrupts that never reached their core.
	IRQsLost uint64
	// Throttles counts throttle events begun.
	Throttles uint64
	// CoreCrashes counts cores actually taken offline (a crash scheduled
	// on an already-dead core, or on the last survivor, is skipped).
	CoreCrashes uint64
	// CoreRecoveries counts cores brought back online after a timed crash.
	CoreRecoveries uint64
	// QueueStalls counts stall windows that actually began.
	QueueStalls uint64
	// NodeCrashes counts whole nodes actually taken down (a crash
	// scheduled on an already-dead node is skipped).
	NodeCrashes uint64
	// NodeRecoveries counts nodes rebooted after a timed node crash.
	NodeRecoveries uint64
	// NodeSlows counts node slowdown windows that actually began.
	NodeSlows uint64
	// Partitions counts interconnect cuts that actually took effect (a
	// cut scheduled on an already-severed leg is skipped).
	Partitions uint64
	// PartitionHeals counts cuts healed after a timed partition.
	PartitionHeals uint64
	// LinkSlows counts link-degradation windows that actually began.
	LinkSlows uint64
	// LinkLosses counts lossy-link windows that actually began (the
	// per-traversal drops themselves are counted by the fabric ledger).
	LinkLosses uint64
}

// Injector draws fault decisions for one run. All methods are
// nil-receiver-safe and draw from the PRNG only when the corresponding
// fault class is enabled, which is what keeps the zero-fault path
// byte-identical to a faultless build.
type Injector struct {
	cfg   Config
	rng   *sim.RNG
	stats Stats
}

// New builds an injector, or returns nil when cfg injects nothing —
// callers hold the nil and every decision method short-circuits.
func New(cfg Config, rng *sim.RNG) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rng}
}

// Config returns the injector's configuration (zero for nil).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Stats returns the cumulative injection counts (zero for nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// DropWire decides whether one network traversal loses its packet.
func (i *Injector) DropWire() bool {
	if i == nil || i.cfg.WireLossProb <= 0 {
		return false
	}
	if i.rng.Float64() < i.cfg.WireLossProb {
		i.stats.WireDrops++
		return true
	}
	return false
}

// DropIRQ decides whether a raised interrupt is lost in delivery.
func (i *Injector) DropIRQ() bool {
	if i == nil || i.cfg.IRQLossProb <= 0 {
		return false
	}
	if i.rng.Float64() < i.cfg.IRQLossProb {
		i.stats.IRQsLost++
		return true
	}
	return false
}

// IRQJitter samples the extra delivery delay for one interrupt.
func (i *Injector) IRQJitter() sim.Duration {
	if i == nil || i.cfg.IRQJitter <= 0 {
		return 0
	}
	return i.rng.ExpDur(i.cfg.IRQJitter)
}

// DMAJitter samples the extra DMA latency for one packet.
func (i *Injector) DMAJitter() sim.Duration {
	if i == nil || i.cfg.DMAJitter <= 0 {
		return 0
	}
	return i.rng.ExpDur(i.cfg.DMAJitter)
}

// StartThrottler arms the transient-throttle process on the engine:
// exponentially spaced events each clamp one uniformly chosen core
// (clamp), releasing it (unclamp) after an exponential hold time.
// Overlapping events on the same core nest — the core is released only
// when the last overlapping event expires. pstate is the resolved clamp
// target the assembly derived from Config.ThrottlePState.
func (i *Injector) StartThrottler(eng *sim.Engine, cores int, pstate int, clamp func(core, pstate int), unclamp func(core int)) {
	if i == nil || i.cfg.ThrottleRate <= 0 || cores <= 0 {
		return
	}
	meanGap := sim.Duration(1e9 / i.cfg.ThrottleRate)
	meanDur := i.cfg.ThrottleDuration
	if meanDur <= 0 {
		meanDur = 10 * sim.Millisecond
	}
	active := make([]int, cores)
	var fire func()
	fire = func() {
		core := i.rng.Intn(cores)
		hold := i.rng.ExpDur(meanDur)
		i.stats.Throttles++
		active[core]++
		clamp(core, pstate)
		eng.Schedule(hold, func() {
			active[core]--
			if active[core] == 0 {
				unclamp(core)
			}
		})
		eng.Schedule(i.rng.ExpDur(meanGap), fire)
	}
	eng.Schedule(i.rng.ExpDur(meanGap), fire)
}

// StartHardFaults arms the scheduled hard faults on the engine. The
// schedule is fixed by the configuration and draws nothing from the
// PRNG, so arming only hard faults perturbs no physics stream — a hard
// fault scheduled past the run horizon leaves the run byte-identical to
// a faultless one.
//
// crash takes the core offline and reports whether it actually did (the
// server refuses to kill an already-dead core or the last survivor);
// restore brings it back and reports whether it did — a node-level
// crash can sweep the core up first, in which case the node's reboot
// owns the recovery and the per-core event is a counted-only-if-taken
// no-op. stall sticks the Rx queue and reports whether it did; unstall
// releases it. Recovery/unstall events are scheduled only when the
// corresponding fault took effect, and recoveries are counted only when
// they took effect too.
func (i *Injector) StartHardFaults(eng *sim.Engine, crash func(core int) bool, restore func(core int) bool, stall func(q int) bool, unstall func(q int)) {
	if i == nil {
		return
	}
	i.arm(eng, coreCrashes, &i.stats.CoreCrashes, func(e entry) bool { return crash(e.target) }, func(e entry) {
		if restore(e.target) {
			i.stats.CoreRecoveries++
		}
	})
	i.arm(eng, queueStalls, &i.stats.QueueStalls, func(e entry) bool { return stall(e.target) },
		func(e entry) { unstall(e.target) })
}

// StartNodeFaults arms the scheduled node-level hard faults on the
// engine — the cluster-side sibling of StartHardFaults, riding the same
// no-PRNG contract: the schedule is fixed by the configuration, so a
// node fault past the run horizon perturbs no physics stream.
//
// crash takes the whole node down and reports whether it did (an
// already-dead node is skipped); restore reboots it and reports whether
// it did. slow clamps the node's cores for the window and reports
// whether the clamp took; unslow lifts it.
func (i *Injector) StartNodeFaults(eng *sim.Engine, crash func(node int) bool, restore func(node int) bool, slow func(node int, factor float64) bool, unslow func(node int)) {
	if i == nil {
		return
	}
	i.arm(eng, nodeCrashes, &i.stats.NodeCrashes, func(e entry) bool { return crash(e.target) }, func(e entry) {
		if restore(e.target) {
			i.stats.NodeRecoveries++
		}
	})
	i.arm(eng, nodeSlows, &i.stats.NodeSlows, func(e entry) bool { return slow(e.target, e.param) },
		func(e entry) { unslow(e.target) })
}

// StartLinkFaults arms the scheduled interconnect faults on the engine,
// under the same discipline as the other scheduled hard faults: the
// schedule is fixed by the configuration and draws nothing from the
// PRNG (lossy-link drops are drawn per traversal by the fabric, from
// the fabric's own side stream), so a link fault past the run horizon
// perturbs no physics stream.
//
// cut severs the leg(s) and reports whether any actually went from
// connected to cut (a cut scheduled entirely on already-severed legs is
// skipped); heal restores exactly what cut severed. slow stretches the
// link and reports whether the stretch took (a link already degraded is
// skipped); unslow lifts it. lossOn arms the per-traversal drop
// probability and reports whether it took; lossOff disarms it.
// Heal/unslow/lossOff events are scheduled only when the fault took.
func (i *Injector) StartLinkFaults(eng *sim.Engine,
	cut func(node int, dir LinkDir) bool, heal func(node int, dir LinkDir),
	slow func(node int, factor float64) bool, unslow func(node int),
	lossOn func(node int, p float64) bool, lossOff func(node int)) {
	if i == nil {
		return
	}
	i.arm(eng, partitions, &i.stats.Partitions, func(e entry) bool { return cut(e.target, e.dir) }, func(e entry) {
		heal(e.target, e.dir)
		i.stats.PartitionHeals++
	})
	i.arm(eng, linkSlows, &i.stats.LinkSlows, func(e entry) bool { return slow(e.target, e.param) },
		func(e entry) { unslow(e.target) })
	i.arm(eng, linkLosses, &i.stats.LinkLosses, func(e entry) bool { return lossOn(e.target, e.param) },
		func(e entry) { lossOff(e.target) })
}

// arm schedules class k's faults in declaration order, which fixes the
// engine's tie-break sequence and so the physics bytes. on fires at each
// fault's instant; if the fault took effect it is counted in *count and,
// for a bounded window, off runs Duration later.
func (i *Injector) arm(eng *sim.Engine, k *class, count *uint64, on func(entry) bool, off func(entry)) {
	for _, e := range k.list(&i.cfg) {
		eng.At(sim.Time(e.at), func() {
			if !on(e) {
				return
			}
			*count++
			if e.dur > 0 {
				eng.Schedule(e.dur, func() { off(e) })
			}
		})
	}
}

// ParseSpec parses the CLI fault specification: a comma-separated list
// of key=value settings. The scalar knobs may each appear at most once:
//
//	loss=P          wire loss probability (both directions), in [0, 1)
//	irqloss=P       interrupt loss probability, in [0, 1)
//	irqjitter=DUR   mean extra interrupt delivery delay (e.g. 5us)
//	dmajitter=DUR   mean extra DMA latency
//	throttle=R/DUR  throttle events per second / mean hold time, with an
//	                optional clamp P-state: throttle=5/20ms@12
//
// The seven scheduled fault classes repeat, one fault per occurrence,
// and share one shape, KEY=TARGET@TIME[:DUR][:PARAM]: the fault strikes
// TARGET at simulated time TIME and lifts DUR later. Where DUR is
// optional, leaving it out makes the fault permanent.
//
//	KEY         TARGET     DUR        PARAM
//	corecrash   core       optional   -
//	queuestall  Rx queue   mandatory  -
//	nodecrash   node       optional   -
//	nodeslow    node       mandatory  factor F > 1: cores run at 1/F of full frequency
//	partition   node link  optional   -
//	linkslow    node link  mandatory  factor F > 1: each traversal takes F× as long
//	linkloss    node link  mandatory  probability P in (0, 1): each traversal drops
//
// A partition target N cuts both legs of node N's link; fe|N cuts only
// the front-end→node leg and N|fe only the node's responses
// (partition=2|fe@300ms:100ms). The node and link classes act in
// cluster runs only; a single server ignores them. An empty spec
// returns the zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("faults: %q is not key=value", part)
		}
		// Only the scalar knobs are single-use.
		k := classNamed(key)
		if k == nil && seen[key] {
			return c, fmt.Errorf("faults: duplicate key %q in %q", key, part)
		}
		seen[key] = true
		var err error
		switch key {
		case "loss":
			c.WireLossProb, err = parseProb(val)
		case "irqloss":
			c.IRQLossProb, err = parseProb(val)
		case "irqjitter":
			c.IRQJitter, err = parseNonNegDur(val)
		case "dmajitter":
			c.DMAJitter, err = parseNonNegDur(val)
		case "throttle":
			err = c.parseThrottle(val)
		default:
			if k == nil {
				return c, fmt.Errorf("faults: unknown key %q (want loss, irqloss, irqjitter, dmajitter, throttle, corecrash, queuestall, nodecrash, nodeslow, partition, linkslow, linkloss)", key)
			}
			err = k.parse(&c, val)
		}
		if err != nil {
			return c, fmt.Errorf("faults: bad %s value %q: %v", key, val, err)
		}
	}
	return c, c.Validate()
}

// parseProb parses a probability and range-checks it in place, so the
// error names the offending token instead of surfacing from the final
// whole-config validation.
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("probability %g outside [0, 1)", p)
	}
	return p, nil
}

// parseNonNegDur parses a duration token that must not be negative.
func parseNonNegDur(val string) (sim.Duration, error) {
	d, err := parseDur(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

// class describes one scheduled fault class. All seven share the shape
// TARGET@TIME[:DUR][:PARAM]; a class fixes the spec key, what TARGET
// names, whether DUR may be left out, and the trailing PARAM, if any.
type class struct {
	key       string                // spec key, e.g. "corecrash"
	noun      string                // what TARGET names: "core", "queue" or "node"
	form      string                // the spec shape, quoted by parse errors
	window    string                // what DUR measures, quoted by parse errors
	permanent bool                  // DUR may be left out: the fault then holds for good
	param     string                // the trailing PARAM's name, "" for none
	lo, hi    float64               // PARAM must exceed lo and, when hi > 0, stay below hi
	list      func(*Config) []entry // the class's faults in a Config
	add       func(*Config, entry)  // appends one fault to a Config
}

// entry is one scheduled fault in class-neutral form.
type entry struct {
	target  int
	dir     LinkDir // partitions only
	at, dur sim.Duration
	param   float64
}

func (f CoreCrash) entry() entry  { return entry{target: f.Core, at: f.At, dur: f.Duration} }
func (f QueueStall) entry() entry { return entry{target: f.Queue, at: f.At, dur: f.Duration} }
func (f NodeCrash) entry() entry  { return entry{target: f.Node, at: f.At, dur: f.Duration} }
func (f NodeSlow) entry() entry {
	return entry{target: f.Node, at: f.At, dur: f.Duration, param: f.Factor}
}
func (f Partition) entry() entry { return entry{target: f.Node, dir: f.Dir, at: f.At, dur: f.Duration} }
func (f LinkSlow) entry() entry {
	return entry{target: f.Node, at: f.At, dur: f.Duration, param: f.Factor}
}
func (f LinkLoss) entry() entry {
	return entry{target: f.Node, at: f.At, dur: f.Duration, param: f.Prob}
}

// entries converts one Config slice to class-neutral form.
func entries[F interface{ entry() entry }](fs []F) []entry {
	es := make([]entry, len(fs))
	for n, f := range fs {
		es[n] = f.entry()
	}
	return es
}

// The seven scheduled fault classes, in Config declaration order. The
// typed literals in add are positional: TARGET, [Dir,] At, Duration[, PARAM].
var (
	coreCrashes = &class{key: "corecrash", noun: "core", form: "CORE@TIME or CORE@TIME:DUR", window: "recovery",
		permanent: true, list: func(c *Config) []entry { return entries(c.CoreCrashes) },
		add: func(c *Config, e entry) { c.CoreCrashes = append(c.CoreCrashes, CoreCrash{e.target, e.at, e.dur}) }}
	queueStalls = &class{key: "queuestall", noun: "queue", form: "Q@TIME:DUR", window: "stall",
		list: func(c *Config) []entry { return entries(c.QueueStalls) },
		add:  func(c *Config, e entry) { c.QueueStalls = append(c.QueueStalls, QueueStall{e.target, e.at, e.dur}) }}
	nodeCrashes = &class{key: "nodecrash", noun: "node", form: "NODE@TIME or NODE@TIME:DUR", window: "reboot",
		permanent: true, list: func(c *Config) []entry { return entries(c.NodeCrashes) },
		add: func(c *Config, e entry) { c.NodeCrashes = append(c.NodeCrashes, NodeCrash{e.target, e.at, e.dur}) }}
	nodeSlows = &class{key: "nodeslow", noun: "node", form: "NODE@TIME:DUR:FACTOR", window: "slowdown",
		param: "factor", lo: 1, list: func(c *Config) []entry { return entries(c.NodeSlows) },
		add: func(c *Config, e entry) { c.NodeSlows = append(c.NodeSlows, NodeSlow{e.target, e.at, e.dur, e.param}) }}
	partitions = &class{key: "partition", noun: "node", form: "A|B@TIME[:DUR] or NODE@TIME[:DUR]", window: "heal",
		permanent: true, list: func(c *Config) []entry { return entries(c.Partitions) },
		add: func(c *Config, e entry) { c.Partitions = append(c.Partitions, Partition{e.target, e.dir, e.at, e.dur}) }}
	linkSlows = &class{key: "linkslow", noun: "node", form: "NODE@TIME:DUR:FACTOR", window: "degradation",
		param: "factor", lo: 1, list: func(c *Config) []entry { return entries(c.LinkSlows) },
		add: func(c *Config, e entry) { c.LinkSlows = append(c.LinkSlows, LinkSlow{e.target, e.at, e.dur, e.param}) }}
	linkLosses = &class{key: "linkloss", noun: "node", form: "NODE@TIME:DUR:PROB", window: "loss-window",
		param: "probability", lo: 0, hi: 1, list: func(c *Config) []entry { return entries(c.LinkLosses) },
		add: func(c *Config, e entry) {
			c.LinkLosses = append(c.LinkLosses, LinkLoss{e.target, e.at, e.dur, e.param})
		}}
	classes = []*class{coreCrashes, queueStalls, nodeCrashes, nodeSlows, partitions, linkSlows, linkLosses}
)

// classNamed returns the scheduled fault class spelled key, or nil.
func classNamed(key string) *class {
	for _, k := range classes {
		if k.key == key {
			return k
		}
	}
	return nil
}

// parse parses one TARGET@TIME[:DUR][:PARAM] value and appends the fault.
func (k *class) parse(c *Config, val string) error {
	target, when, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want %s", k.form)
	}
	var e entry
	if a, b, oneWay := strings.Cut(target, "|"); oneWay && k == partitions {
		switch {
		case a == "fe":
			e.dir, target = LinkTx, b
		case b == "fe":
			e.dir, target = LinkRx, a
		default:
			return fmt.Errorf("one endpoint of %q must be the front end, spelled fe", target)
		}
	}
	var err error
	if e.target, err = strconv.Atoi(target); err != nil {
		return err
	}
	if e.target < 0 {
		return fmt.Errorf("negative %s %d", k.noun, e.target)
	}
	atStr, durStr, timed := strings.Cut(when, ":")
	switch {
	case !timed && !k.permanent && k.param == "":
		return fmt.Errorf("want %s (the %s window is mandatory)", k.form, k.window)
	case !timed && !k.permanent:
		return fmt.Errorf("want %s (the window and %s are mandatory)", k.form, k.param)
	}
	var paramStr string
	if k.param != "" {
		if durStr, paramStr, ok = strings.Cut(durStr, ":"); !ok {
			return fmt.Errorf("want %s (the %s is mandatory)", k.form, k.param)
		}
	}
	if e.at, err = parseNonNegDur(atStr); err != nil {
		return err
	}
	if timed {
		if e.dur, err = parseDur(durStr); err != nil {
			return err
		}
		if e.dur <= 0 {
			return fmt.Errorf("%s duration must be positive, got %v", k.window, e.dur)
		}
	}
	if k.param != "" {
		if e.param, err = strconv.ParseFloat(paramStr, 64); err != nil {
			return err
		}
	}
	if err = k.checkParam(e.param); err != nil {
		return err
	}
	k.add(c, e)
	return nil
}

// check validates one fault of the class for Config.Validate.
func (k *class) check(e entry) error {
	switch {
	case e.target < 0:
		return fmt.Errorf("faults: negative %s %s %d", k.key, k.noun, e.target)
	case e.dir > LinkRx:
		return fmt.Errorf("faults: unknown %s direction %d", k.key, e.dir)
	case e.at < 0:
		return fmt.Errorf("faults: negative %s time %v", k.key, e.at)
	case k.permanent && e.dur < 0:
		return fmt.Errorf("faults: negative %s duration %v", k.key, e.dur)
	case !k.permanent && e.dur <= 0:
		return fmt.Errorf("faults: %s needs a positive duration, got %v", k.key, e.dur)
	}
	if err := k.checkParam(e.param); err != nil {
		return fmt.Errorf("faults: %s %v", k.key, err)
	}
	return nil
}

// checkParam range-checks a PARAM value (a no-op for a class without one).
func (k *class) checkParam(v float64) error {
	switch {
	case k.param == "":
	case k.hi == 0 && v <= k.lo:
		return fmt.Errorf("%s must be > %g, got %g", k.param, k.lo, v)
	case k.hi > 0 && (v <= k.lo || v >= k.hi):
		return fmt.Errorf("%s %g outside (%g, %g)", k.param, v, k.lo, k.hi)
	}
	return nil
}

// parseThrottle parses "RATE/DUR" with an optional "@PSTATE" suffix.
func (c *Config) parseThrottle(val string) error {
	if at := strings.LastIndexByte(val, '@'); at >= 0 {
		p, err := strconv.Atoi(val[at+1:])
		if err != nil {
			return err
		}
		if p < 0 {
			return fmt.Errorf("negative P-state %d", p)
		}
		c.ThrottlePState = p
		val = val[:at]
	}
	rate, dur, ok := strings.Cut(val, "/")
	if !ok {
		return fmt.Errorf("want RATE/DUR")
	}
	r, err := strconv.ParseFloat(rate, 64)
	if err != nil {
		return err
	}
	if r < 0 {
		return fmt.Errorf("negative rate %g", r)
	}
	d, err := parseNonNegDur(dur)
	if err != nil {
		return err
	}
	c.ThrottleRate = r
	c.ThrottleDuration = d
	return nil
}

// parseDur parses a Go duration string into simulated nanoseconds.
func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()), nil
}
