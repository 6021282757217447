# CI entry points for the NMAP reproduction. `make ci` is what a
# pipeline should run; the individual targets exist for local use.

GO ?= go

# Profile-guided optimization: default.pgo is a committed CPU profile of
# the representative fig12 run (refresh with `make pgo`). The build
# target passes it explicitly so every package — not just the main one —
# compiles with profile feedback; pgo-smoke proves the PGO codegen is
# physics-byte-identical to a -pgo=off build.
PGO = default.pgo
PGOFLAG = $(if $(wildcard $(PGO)),-pgo=$(PGO),)

.PHONY: ci vet govulncheck build test race fault-smoke failover-smoke cluster-smoke gray-smoke fuzz-smoke checkpoint-smoke chaos-smoke pgo pgo-smoke profile thresholds clean

# Performance is measured by the same-host A/B benchmark under
# benchmark/ (`bash benchmark/run.sh`, see benchmark/README.md), not by
# a CI target: wall-clock numbers only compare on one host.
ci: vet govulncheck build race fault-smoke failover-smoke cluster-smoke gray-smoke fuzz-smoke checkpoint-smoke chaos-smoke pgo-smoke

# Fault-injection smoke matrix: the loss/retry/throttle/watchdog paths
# run under the race detector, then one figure regenerates end to end
# with every fault class armed at once.
FAULT_SPEC = loss=0.02,irqloss=0.001,irqjitter=2us,throttle=50/2ms@10
fault-smoke:
	$(GO) test -race -count=1 \
		-run 'Fault|Retry|Overload|WireLoss|LostIRQ|SockQCap|Watchdog|Throttle|Abort' \
		./internal/sim/ ./internal/faults/ ./internal/cpu/ ./internal/server/ ./internal/experiments/
	$(GO) run ./cmd/nmapsim -quick -faults $(FAULT_SPEC) -rto 20ms fig2 > /dev/null

# Hard-fault failover matrix: core crash/recovery, queue stalls, RSS
# re-steering and load shedding under the race detector, then fig9
# regenerates end to end under a scheduled core crash and queue stall
# with the auditor on. The resilience figure's bytes are pinned by
# TestGolden (see pgo-smoke).
CRASH_SPEC = corecrash=1@150ms:100ms,queuestall=2@180ms:40ms
failover-smoke:
	$(GO) test -race -count=1 \
		-run 'Crash|Failover|Resteer|ReSteer|Shed|Stall|Offline|Online|Adopt|Resilience|HardFault' \
		./internal/faults/ ./internal/cpu/ ./internal/nic/ ./internal/kernel/ \
		./internal/governor/ ./internal/audit/ ./internal/server/ ./internal/experiments/ ./internal/fuzzer/
	$(GO) run ./cmd/nmapsim -quick -faults $(CRASH_SPEC) -rto 20ms -audit fig9 > /dev/null

# Fleet failover gate: the node-crash choreography (router resteers,
# health mark-down/half-open recovery, cluster conservation ledger) runs
# under the race detector, and the 1-node cluster must stay
# byte-identical to the plain single-server run (the zero-overhead-
# abstraction gate). The fleet figure's bytes under a node crash with
# the auditor on are pinned by TestGolden (see pgo-smoke).
cluster-smoke:
	$(GO) test -race -count=1 \
		-run 'Cluster|NodeCrash|NodeSlow|NodeFault|Router|Health|FleetPowerCap|TotalOutage' \
		./internal/cluster/ ./internal/faults/ ./internal/nic/ ./internal/audit/ \
		./internal/server/ ./internal/experiments/
	$(GO) test -count=1 -run TestSingleNodeClusterByteIdentical ./internal/cluster/

# Gray-failure gate: the interconnect fabric, link fault family
# (partition/linkslow/linkloss), flap-damped prober and hedged front end
# run under the race detector across every layer they touch, and the
# zero-cost contract holds: a fabric armed only by past-horizon link
# faults must stay byte-identical to no fabric at all, as must a 1-node
# cluster to a plain server. The gray-failure figure's bytes with the
# auditor on are pinned by TestGolden (see pgo-smoke).
gray-smoke:
	$(GO) test -race -count=1 \
		-run 'GrayFail|Partition|LinkSlow|LinkLoss|LinkFault|Hedge|Flap|Fabric|Probation|OneWay|CheckCluster|SeedCorpusClean|Fleet' \
		./internal/cluster/ ./internal/faults/ ./internal/audit/ \
		./internal/experiments/ ./internal/fuzzer/
	$(GO) test -count=1 -run 'TestLinkFaultPastHorizonByteIdentical|TestSingleNodeClusterByteIdentical' ./internal/cluster/

# Checkpoint smoke: kill a journaled sweep mid-run, resume it from the
# journal, and require byte-identical stdout against an uninterrupted
# run. Every cell is a deterministic seeded simulation, so a journaled
# result and a recomputed one must render identically no matter where
# the kill landed (including before any cell completed).
checkpoint-smoke:
	$(GO) build -o .ckpt-nmapsweep ./cmd/nmapsweep
	./.ckpt-nmapsweep -points 6 -dur 250 -parallel 1 > .ckpt-ref.txt
	rm -f .ckpt.journal
	-timeout -s KILL 1 ./.ckpt-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .ckpt.journal > /dev/null 2>&1
	./.ckpt-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .ckpt.journal > .ckpt-resume.txt 2> /dev/null
	cmp .ckpt-ref.txt .ckpt-resume.txt
	rm -f .ckpt-nmapsweep .ckpt-ref.txt .ckpt-resume.txt .ckpt.journal

# Harness chaos gate: the self-healing orchestration must survive every
# harness fault class with a byte-identical report. The Go scenarios
# cover kill-mid-sweep, torn/corrupted/duplicated journal lines, flaky
# and poison cells, and simulated disk-full; the CLI leg below then
# kills a journaled sweep, tears its tail, flips a byte mid-journal,
# proves -fsck flags the damage, and requires the resumed sweep to
# render the same bytes as an unfaulted run anyway. A poisoned sweep
# must name its quarantined cells in the report, never drop them.
chaos-smoke:
	$(GO) test -count=1 ./internal/harnesschaos/
	$(GO) build -o .chaos-nmapsweep ./cmd/nmapsweep
	./.chaos-nmapsweep -points 6 -dur 250 -parallel 1 > .chaos-ref.txt
	rm -f .chaos.journal
	-timeout -s KILL 1 ./.chaos-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .chaos.journal > /dev/null 2>&1
	touch .chaos.journal
	printf 'j2 9999 deadbeef {"torn' >> .chaos.journal
	dd if=/dev/zero of=.chaos.journal bs=1 seek=3 count=1 conv=notrunc status=none
	! ./.chaos-nmapsweep -fsck -checkpoint .chaos.journal > /dev/null
	./.chaos-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .chaos.journal > .chaos-resume.txt 2> /dev/null
	cmp .chaos-ref.txt .chaos-resume.txt
	sh -c './.chaos-nmapsweep -points 2 -dur 50 -policy chaos-bogus -quarantine > .chaos-q.txt 2> /dev/null; test $$? -eq 3'
	grep -q QUARANTINED .chaos-q.txt
	rm -f .chaos-nmapsweep .chaos-ref.txt .chaos-resume.txt .chaos.journal .chaos-q.txt

# Capture CPU and heap (allocs) profiles from the standard fig12-quick
# run: `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) build -o .prof-nmapsim ./cmd/nmapsim
	./.prof-nmapsim -quick -cpuprofile cpu.prof -memprofile mem.prof fig12 > /dev/null
	rm -f .prof-nmapsim
	@echo "wrote cpu.prof and mem.prof (view with: go tool pprof cpu.prof)"

# Fuzz smoke: replay the checked-in corpus, let the native fuzzers mutate
# for a few seconds each (the auditor's configurations, the calendar
# queue against the reference binary heap, the NIC's lazy Tx
# completions against the per-segment reference NIC, then the exact
# latency recorder against a sorted []int64), then push 200
# fresh random configurations through the auditor as harness cells
# with cmd/nmapfuzz. Any
# invariant violation or firing-order divergence fails the build and
# leaves a minimized reproducer in fuzz-failures/ or the package's
# testdata/fuzz.
fuzz-smoke:
	$(GO) test -count=1 -run 'TestSeedCorpusClean|FuzzAuditInvariants' ./internal/fuzzer/
	$(GO) test -run '^$$' -fuzz FuzzAuditInvariants -fuzztime 10s ./internal/fuzzer/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerEquivalence -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzTxElisionEquivalence -fuzztime 10s ./internal/nic/
	$(GO) test -run '^$$' -fuzz FuzzHistExact -fuzztime 10s ./internal/stats/
	$(GO) run ./cmd/nmapfuzz -n 200 -seed 1

# Record a fresh PGO profile from the representative fig12-quick run.
# The profile is recorded with a -pgo=off binary so it describes the
# un-optimized hot paths (iterating PGO on its own output converges on
# stale inlining decisions), then committed as $(PGO).
pgo:
	$(GO) build -pgo=off -o .pgo-nmapsim ./cmd/nmapsim
	./.pgo-nmapsim -quick -parallel 1 -cpuprofile $(PGO) fig12 > /dev/null
	rm -f .pgo-nmapsim
	@echo "wrote $(PGO); commit it so make ci builds with it"

# Golden byte gate, built both ways: TestGolden runs the command lines
# of the committed corpus under internal/cli/testdata/golden through the
# CLI bodies in internal/cli (nmapsim: table1, faulted fig9 with and
# without -audit-report, fig-resilience, fig-cluster, fig-cluster with
# hedging and a 20ms client RTO, fig-grayfail and fig11's percentile
# lines; nmapreport: a matrix, an audited nginx matrix under a core
# crash, a queue stall and lost IRQs, and a memcached matrix with -cdf
# from the exact recorder and again with -stream; an nmapsweep curve;
# 60 nmapfuzz configurations with -v) serially and on 4 workers, plus
# nginx's nmapprofile thresholds once, and every stdout byte must match — once
# with -pgo=off and once with the committed profile, so profile-guided
# codegen can never drift physics either.
pgo-smoke:
	$(GO) test -count=1 -pgo=off -run TestGolden ./internal/cli/
	$(GO) test -count=1 $(PGOFLAG) -run TestGolden ./internal/cli/

# Rewrite the committed §4.2 threshold table of the built-in profiles
# (internal/experiments/thresholds_table.go) after a change that moves
# their profiling run; TestBuiltinThresholds fails until it is rerun.
# Each entry the rewrite changed is logged.
thresholds:
	$(GO) test -count=1 -run '^TestBuiltinThresholds$$' -v ./internal/experiments/ -update

vet:
	$(GO) vet ./...

# Known-vulnerability scan over the module graph and reachable call
# paths. The tool is not vendored; when absent the step reports how to
# install it (pin v1.1.4 for reproducible CI) and succeeds, so air-gapped
# builds still pass. CI hosts with the binary on PATH get the real scan.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck: not on PATH, skipping scan" ; \
		echo "govulncheck: to enable: go install golang.org/x/vuln/cmd/govulncheck@v1.1.4" ; \
	fi

build:
	$(GO) build $(PGOFLAG) ./...

test:
	$(GO) test ./...

# The experiments exercise goroutine fan-out, so the tier-1 gate runs
# them under the race detector. internal/experiments alone takes ~13
# minutes under race on a 2-vCPU host, past the 10-minute default.
race:
	$(GO) test -race -timeout 40m ./...

clean:
	$(GO) clean ./...
