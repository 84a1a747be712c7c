GO ?= go

.PHONY: build test race fuzz vet check identical alloc-gate loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector: the engine's one-runner-at-a-time
# handoff, the parallel benchmark runner's worker pool, and the shared
# observer registry are all exercised concurrently by the bench tests.
race:
	$(GO) test -race ./...

# Short fuzz smoke of the parsers that consume untrusted bytes — the
# checkpoint codec round-trip (the delta half also holds replay into reused
# scratch to the allocating reference), the decoders of durable checkpoint
# files and channel logs, the one checkpoint reader under every variant
# (hostile chain pointers and wrong indexes refused), and the scheme-name
# resolver — plus the
# differentials against retired reference implementations: the incremental
# payload encoders (a bare snapshot and a pad count, zero runs found a word at
# a time, vs the padded image materialised and scanned a byte at a time), the
# engine's event queue (4-ary heap of same-time runs vs container/heap), the fabric's virtual schedule
# (event-driven flights vs a courier process per message), the storage
# server's files (extent lists of the gathered slices it is handed vs one flat,
# copied slice per file) and the checkpoint writer's requests (gathered from a
# file's slice list vs the flat loop over one buffer) — and the engine's
# ordering contract under generated programs (strict (at, push) order across
# the heap's runs, the staged run and the current-instant lane), and ISING's guarded Metropolis
# acceptance (bounds decide, math.Exp only between them) against the plain
# comparison with math.Exp. The Go fuzzer allows one target per invocation,
# hence one run each.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDeltaCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzPaddedEncode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz FuzzCkptFileDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz FuzzSegmentParts -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bench -run '^$$' -fuzz FuzzVariantParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueueOrder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineOrder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric -run '^$$' -fuzz FuzzFabricSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzStorageOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/apps -run '^$$' -fuzz FuzzMetropolisAccept -fuzztime $(FUZZTIME)

vet:
	$(GO) vet ./...

# Crash-recovery correctness oracle (cmd/chkcheck): every explorer cell is
# crashed mid-run, recovered through its scheme's own protocol, audited
# against the consistency invariants, and compared byte-for-byte with a
# fault-free baseline. The quick sweep is the CI check-matrix job's matrix:
# 460 cells — the 12 explorer schemes in every quarter of their runs (384),
# plus the sharded-storage (48) and coordinator-kill (28) lattices. Any
# failure prints the cell name and seed; CHECKFLAGS="-cell 'NAME'" replays
# it, CHECKFLAGS=-full swaps the 384 for the full lattice (check.FullSweep:
# 3 workloads x 12 schemes x 6 strata x 8 seeds), whose totals `make
# identical` pins.
CHECKFLAGS ?= -quick
check:
	$(GO) run ./cmd/chkcheck $(CHECKFLAGS)

# Byte-identity, slow half: regenerate IDENTITY.txt's full section — digests of
# the full-size `chkbench -table all` and `chkbench -exp
# scale|avail|failover|domino` outputs, `chkcheck -quick`'s and `-full`'s cell
# and check totals, and the five benchmark workloads' sim_digest at seed 7 (benchmark/ is
# built and run, never written) — and diff it against the committed file; a
# mismatch prints the differing manifest lines. The quick section is a tier-1
# test (TestIdentity under `go test ./...`). A change that means to move an
# output reruns with UPDATE=-update and shows the manifest line in its diff.
UPDATE ?=
identical:
	$(GO) test -count=1 -timeout 60m -run '^TestIdentity$$' . -full $(UPDATE)

# Allocation gate: the testing.AllocsPerRun pins for the engine, fabric, codec
# and collective hot paths; that the storage server allocates nothing of a
# segment's size for a file appended to it, and a full-image capture (local
# timers and coordinated) at most 0.05 bytes per byte of the file it gathers;
# an incremental capture and commit of a 1 MiB state at the record it builds
# plus a few hundred bytes, and the per-audited-commit pin; an ISING half-sweep
# at zero and a TSP subtree search at its path buffer plus one tour per
# improvement; plus a microbenchmark smoke of the event queue, the fabric's
# send path, the payload codecs and those two kernels — all under the race
# detector. A failure here means a change re-introduced steady-state
# allocation (or broke the queue/codec): deterministic, where the benchmark/
# harness's wall clock is noisy.
alloc-gate:
	$(GO) test -race -run 'TestAllocs|TestDecodeF64sIntoMatches' ./internal/sim ./internal/fabric ./internal/storage ./internal/codec ./internal/mp ./internal/ckpt ./internal/check ./internal/apps
	$(GO) test -race -run '^$$' -bench . -benchtime 10x ./internal/sim ./internal/fabric ./internal/codec ./internal/apps

# Lines of code, counted one way: non-blank lines that are not // comments,
# per package directory, non-test files and _test.go files apart. This is the
# number behind "net-negative line counts" (ROADMAP aim 2); CI prints it in the
# test job's log.
loc:
	@count() { cat /dev/null "$$@" | grep -v '^\s*$$' | grep -vc '^\s*//'; }; \
	code=0; tests=0; printf '%-24s %7s %7s\n' package code tests; \
	for d in $$(find . -name '*.go' -not -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		c=$$(count $$(ls $$d/*.go | grep -v _test.go)); t=$$(count $$(ls $$d/*_test.go 2>/dev/null)); \
		code=$$((code + c)); tests=$$((tests + t)); printf '%-24s %7d %7d\n' "$${d#./}" $$c $$t; \
	done; printf '%-24s %7d %7d\n' total $$code $$tests

# What the GitHub workflow runs (.github/workflows/ci.yml): the full suite
# under the race detector, plus build, vet, the nested benchmark module's own
# tests (./... does not reach it, and it compiles against fabric, topo and sim
# through their public API), the fuzz smoke, and the allocation gate.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) -C benchmark test ./...
	$(MAKE) fuzz
	$(MAKE) alloc-gate
