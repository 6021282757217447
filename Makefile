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

.PHONY: ci fmt vet govulncheck build fma test race fuzz-smoke pgo pgo-smoke profile thresholds clean

# Every other check is a Go test that race runs: the fault, failover,
# fleet and gray-failure matrices, the zero-cost byte-identity gates,
# and the harness chaos scenarios, including a journaled nmapsweep
# process killed mid-run and resumed (internal/harnesschaos). The
# figures' bytes are pinned by TestGolden (see pgo-smoke).
#
# Performance is measured by the same-host A/B benchmark under
# benchmark/ (`bash benchmark/run.sh`, see benchmark/README.md), not by
# a CI target: wall-clock numbers only compare on one host.
ci: fmt vet govulncheck build fma race fuzz-smoke pgo-smoke

# Capture CPU and heap (allocs) profiles from the standard fig12-quick
# run: `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) build -o .prof-nmapsim ./cmd/nmapsim
	./.prof-nmapsim -quick -cpuprofile cpu.prof -memprofile mem.prof fig12 > /dev/null
	rm -f .prof-nmapsim
	@echo "wrote cpu.prof and mem.prof (view with: go tool pprof cpu.prof)"

# Fuzz smoke: let the native fuzzers mutate for a few seconds each (the
# auditor's configurations, the calendar queue against the reference
# binary heap, the NIC's lazy Tx completions against the per-segment
# reference NIC, then the exact latency recorder against a sorted
# []int64), then push 200 fresh random configurations through the
# auditor as harness cells with cmd/nmapfuzz. Each fuzzer replays its
# checked-in corpus first, and race runs every corpus as plain tests,
# TestSeedCorpusClean included. Any invariant violation or firing-order
# divergence fails the build and leaves a minimized reproducer in
# fuzz-failures/ or the package's testdata/fuzz. Minimizing an input
# stops after 1s, so the 10s go to running the targets.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAuditInvariants -fuzztime 10s -fuzzminimizetime 1s ./internal/fuzzer/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerEquivalence -fuzztime 10s -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzTxElisionEquivalence -fuzztime 10s -fuzzminimizetime 1s ./internal/nic/
	$(GO) test -run '^$$' -fuzz FuzzHistExact -fuzztime 10s -fuzzminimizetime 1s ./internal/stats/
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

# Golden byte gate, built both ways: TestGolden runs every command line
# of the corpus (goldenCases in internal/cli/golden_test.go, stdout under
# internal/cli/testdata/golden) through the CLI bodies in internal/cli,
# serially and on 4 workers, and every stdout byte must match — once
# with -pgo=off, once with the committed profile, so profile-guided
# codegen can never drift physics either, and once more with the
# profile under GODEBUG=cpu.fma=off, so amd64's run-time choice of
# math.Exp's FMA kernel can never reach an output byte.
pgo-smoke:
	$(GO) test -count=1 -pgo=off -run TestGolden ./internal/cli/
	$(GO) test -count=1 $(PGOFLAG) -run TestGolden ./internal/cli/
	GODEBUG=cpu.fma=off $(GO) test -count=1 $(PGOFLAG) -run TestGolden ./internal/cli/

# Rewrite the committed §4.2 threshold table of the built-in profiles
# (internal/experiments/thresholds_table.go) after a change that moves
# their profiling run; TestBuiltinThresholds fails until it is rerun.
# Each entry the rewrite changed is logged.
thresholds:
	$(GO) test -count=1 -run '^TestBuiltinThresholds$$' -v ./internal/experiments/ -update

# Formatting gate: print every tracked .go file gofmt would rewrite and
# fail if there is any.
fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "$$files"; exit 1; fi

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

# Portable bytes: the Go spec lets a compiler fuse x*y + z into one
# fused multiply-add, which rounds once instead of twice, so a fused op
# can move an output digit. amd64 never fuses; these targets do. Each is
# cross-compiled with -S, and any fused multiply-add inside a repository
# function fails the build, named with its function and line. An
# explicit float64(...) conversion rounds, so it keeps a product unfused.
FMA_ARCHES = arm64 ppc64le s390x riscv64

fma:
	@out=$$(mktemp); trap 'rm -f $$out' EXIT; status=0; \
	for arch in $(FMA_ARCHES); do \
		GOARCH=$$arch $(GO) build -trimpath -gcflags='nmapsim/...=-S' ./internal/... >$$out 2>&1 || { cat $$out; exit 1; }; \
		awk -v arch=$$arch ' \
			/^[^ \t]/ { fn = match($$0, / STEXT /) ? substr($$0, 1, RSTART - 1) : ""; next } \
			fn ~ /^nmapsim\// && $$4 ~ /^FN?M(ADD|SUB)[DS]?$$/ { print arch ": " fn " " $$3 " " $$4; n++ } \
			END { exit n > 0 }' $$out || status=1; \
	done; \
	if [ $$status -ne 0 ]; then echo "fma: fused multiply-adds found (add a float64(...) conversion at each)"; fi; \
	exit $$status

test:
	$(GO) test ./...

# The experiments exercise goroutine fan-out, so the tier-1 gate runs
# them under the race detector. internal/experiments alone takes ~13
# minutes under race on a 2-vCPU host, past the 10-minute default.
race:
	$(GO) test -race -timeout 40m ./...

clean:
	$(GO) clean ./...
