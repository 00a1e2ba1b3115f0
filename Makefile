# TraceBack reproduction — convenience targets.
#
#   make build       compile + vet everything
#   make test        full test suite
#   make vet         static analysis only
#   make check       tbcheck over the examples + seeded-broken corpus
#   make ci          what the gate runs: fmt-check + vet + check +
#                    race-detector tests + the end-to-end *-check gates
#   make tables      regenerate the paper tables (tbbench)
#
# The repo benchmark is bench/ (see bench/README.md), not a target here.

GO ?= go

.PHONY: all build test test-short test-race vet fmt-check check ci fuzz bench examples tables verify clean store-check collect-check fault-check shard-check replay-check gensnaps genregress

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to say about any file.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Instrumentation-invariant verification: every example program must
# instrument to a module tbcheck finds clean, and every seeded-broken
# module in the verifier's corpus must be flagged (-broken inverts the
# exit status, so a silently-passing verifier fails the gate). The
# fleet lines do the same cross-module: all examples together must
# form a clean fleet (no unserved RPC endpoints, no reply-less recv
# paths, no mining-ambiguous probe words), and every seeded-broken
# fleet under corpus/fleet/ must be flagged by its pass.
check:
	$(GO) run ./cmd/tbcheck examples/*/*.mc
	$(GO) run ./cmd/tbcheck -broken internal/verify/testdata/corpus/ambiguous-encoding.tbm \
		internal/verify/testdata/corpus/clobbering-probe.tbm \
		internal/verify/testdata/corpus/dangling-dag-edge.tbm \
		internal/verify/testdata/corpus/misaligned-map-block.tbm \
		internal/verify/testdata/corpus/missing-bit.tbm \
		internal/verify/testdata/corpus/missing-probe.tbm
	$(GO) run ./cmd/tbcheck internal/verify/testdata/corpus/clean.tbm
	$(GO) run ./cmd/tbcheck -fleet examples/*/*.mc
	$(GO) run ./cmd/tbcheck -fleet internal/verify/testdata/corpus/fleet/fleet-clean
	$(GO) run ./cmd/tbcheck -fleet -broken internal/verify/testdata/corpus/fleet/ambiguous-trailer \
		internal/verify/testdata/corpus/fleet/missing-sync \
		internal/verify/testdata/corpus/fleet/unserved-endpoint

# The CI gate: formatting, static analysis, instrumentation
# verification, the race-detector pass (which subsumes plain `go
# test`), the snap warehouse + collection plane end-to-end checks, the
# bounded fault-injection campaign, the sharded-warehouse + fleet
# triage loopback gate, and the record-and-replay gate; keep this
# green before merging.
ci: fmt-check vet check test-race store-check collect-check fault-check shard-check replay-check

# Warehouse end-to-end gate: ingest the committed snaps/ fleet plus a
# fresh re-run of the example scenarios, assert full deduplication and
# bucket accounting, and verify the index rebuilt from the journal
# alone is byte-identical to the live index. Fails if snaps/ is stale
# relative to the scenarios (fix: make gensnaps, commit the result).
store-check:
	$(GO) run ./tools/storecheck

# Collection plane end-to-end gate: push the committed fleet through
# tbagent→tbcollectd over loopback TCP at ingest concurrency 1/4/16
# and assert index byte-parity with a direct local ingest, full dedup
# of replays via the HEAD precheck, journal-rebuild identity, and a
# graceful daemon drain.
collect-check:
	$(GO) run ./tools/collectcheck

# Fault-injection gate: bounded multi-seed campaigns over every fault
# kind (kill -9, signal storms, RPC drop/delay/dup, module unload,
# tiny-buffer wrap stress, managed interrupts, and a mid-ingest
# collector kill in the wire phase), each asserting the reconstruction
# invariants; then replay of the committed regression corpus, whose
# seeded-known-bad case must stay detected. Fixed seeds: the whole
# gate is deterministic. On failure, evidence bundles (snaps + maps +
# repro line) land under fault_evidence/.
fault-check:
	$(GO) run ./cmd/tbfault run -seed 1 -kinds all -regress fault_evidence
	$(GO) run ./cmd/tbfault run -seed 2 -kinds kill,signal,rpc,unload,wrap -regress fault_evidence
	$(GO) run ./cmd/tbfault replay -dir snaps/regressions

# Record-and-replay gate: re-record every example scenario and hold
# the fresh harvest to the committed snaps/ fleet byte for byte, then
# replay each recording — and every committed regression-corpus case's
# embedded recording — asserting byte-identical reconstruction; seeded
# divergent logs (corrupted checkpoint, torn tail) must be rejected
# with machine-readable divergence reports. Fully deterministic.
replay-check:
	$(GO) run ./tools/replaycheck

# Sharded warehouse + fleet triage gate: boot a three-shard loopback
# fleet plus a fan-out gate and a single-node reference daemon, push
# the same seeded two-phase campaign (the example scenarios as a steady
# background across ten rate windows, one tbfault kill trial injected
# into the newest window only) through both, and assert the union of
# shard journals is byte-identical to the single-node index, the
# gate's wire responses match the single daemon byte for byte (and
# again from 304s alone, no merge run, when asked twice),
# /v1/regressions flags exactly the injected signatures on the wire
# and local (tbstore-path) triage over the drained store agrees, the
# journal rebuilds the index (rate windows included) bit-for-bit, and
# a kill/restart of one shard mid-campaign redirects uploads (counted
# in coll_agent_failover_total) without losing a snap, the restarted
# shard's list fetched afresh under its new epoch.
shard-check:
	$(GO) run ./tools/shardcheck

# Regenerate the committed example snap fleet (deterministic; only
# needed when the examples or the instrumentation change).
gensnaps:
	$(GO) run ./tools/gensnaps

# Regenerate the committed fault regression corpus under
# snaps/regressions/ (deterministic; only needed when the scenarios,
# instrumentation, or fault planner change).
genregress:
	$(GO) run ./tools/genregress

# Race-detector pass over everything, including the pipeline-vs-oracle
# stress test (jobs 1/4/16 against one shared MapCache), the gate's
# concurrent queries beside uploads, and the archive's snapshot-vs-
# ingest consistency test.
test-race:
	$(GO) test -race ./...

# Bounded fuzz smoke over every decoder of untrusted bytes (trace
# records, snaps, mapfiles, journals, a shard's answer to the gate);
# the committed seed corpora live under <pkg>/testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceRecordDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzNondetRecordDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSnapReader -fuzztime $(FUZZTIME) ./internal/snap
	$(GO) test -run '^$$' -fuzz FuzzMapFileVerify -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzFleetVerify -fuzztime $(FUZZTIME) ./internal/verify/fleet
	$(GO) test -run '^$$' -fuzz FuzzArchiveIndex -fuzztime $(FUZZTIME) ./internal/archive
	$(GO) test -run '^$$' -fuzz FuzzGateBucketsResponse -fuzztime $(FUZZTIME) ./internal/shard/gate

# One benchmark per paper table/figure; results land in bench_output.txt.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

tables:
	$(GO) run ./cmd/tbbench -table all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crosslang
	$(GO) run ./examples/crossmachine
	$(GO) run ./examples/deadlock

bin:
	mkdir -p bin
	$(GO) build -o bin ./cmd/...

verify: build test
	$(GO) test ./... 2>&1 | tee test_output.txt

# snaps/ is committed (the deterministic example fleet the warehouse
# gate ingests) — clean must not remove it.
clean:
	rm -rf bin test_output.txt bench_output.txt fault_evidence
