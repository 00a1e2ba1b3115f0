# TraceBack reproduction — convenience targets.
#
#   make build       compile + vet everything
#   make bin         build every CLI into bin/
#   make test        full test suite
#   make vet         static analysis only
#   make check       tbcheck over the examples + seeded-broken corpus
#   make examples    run the four examples end to end, twice each,
#                    outside the module, failing on any stdout difference
#   make ci          what the gate runs: fmt-check + vet + check +
#                    examples + race-detector tests
#   make gen         regenerate the committed generated trees (tools/gen),
#                    the paper's tables among them
#   make bench-check PARENT=<rev>   paired benchmark runs against <rev>
#
# The repo benchmark is bench/ (see bench/README.md).

GO ?= go

.PHONY: all build bin test test-short test-race vet fmt-check check ci fuzz examples clean gen bench-check

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
# -fleet lines do the same for module sets: all examples together must
# form a clean set (no unserved RPC endpoints, no reply-less recv
# paths), every seeded-broken set under corpus/fleet/ must be flagged,
# and a set is checked module by module too, so a clean pair plus a
# seeded-broken module must draw that module's probe-coverage error.
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
	$(GO) run ./cmd/tbcheck -broken internal/verify/testdata/corpus/fleet/ambiguous-trailer \
		internal/verify/testdata/corpus/fleet/missing-sync \
		internal/verify/testdata/corpus/fleet/unserved-endpoint
	$(GO) run ./cmd/tbcheck -fleet internal/verify/testdata/corpus/fleet/fleet-clean \
		internal/verify/testdata/corpus/missing-probe.tbm | grep -q 'error: \[probe-coverage\]'

# The CI gate: formatting, static analysis, instrumentation
# verification and the race-detector pass, which subsumes plain `go
# test` and holds every end-to-end byte-identity invariant (DESIGN.md
# §15 names the test behind each) — the fault-injection campaigns
# included: fault.TestCampaignEndToEnd runs the fixed-seed campaigns
# over every fault kind, fault.TestCommittedCorpus and
# tbfault.TestReplayCommittedCorpus replay the committed regression
# corpus; tools/gen's TestDocReferencesResolve keeps every section
# reference into DESIGN.md and every test the docs cite pointing at
# something that exists, its TestExportsHaveProductionCallers holds
# every exported function to a production caller and every exported
# field of a …Config/…Options struct to a production setter, its
# TestStoredFieldsHaveReaders holds every field a snap, mapfile or
# journal line stores to a production reader, and its
# TestMetricsDocumentedAndMoved holds the registered metrics to
# DESIGN.md §12's table and each to a test that names it or a reader
# on its allowlist, its TestFlagsHaveUsers holds every flag a
# cmd/*/main.go registers to a mention in the docs or a test, or a
# reason on its allowlist; and each CLI's /dev/full test
# (TestStoreWriteFailure, TestDumpWriteFailure,
# TestReplayCLIWriteFailure, TestReplayWriteFailure and their older
# siblings) fails the CLI when its output cannot be written. A failing
# campaign test logs its repro line; `go run ./cmd/tbfault <repro
# line minus "tbfault"> -regress fault_evidence` rewrites the evidence
# bundles (snaps + maps + repro) under
# fault_evidence/, deterministically. `check` is a target of its own
# because it drives a product CLI across a process boundary;
# `examples` runs each example program, which exits nonzero when its
# fault is not snapped or its hang not detected.
ci: fmt-check vet check examples test-race

# Regenerate every committed generated tree — snaps/, snaps/regressions/,
# the verifier's seeded-broken corpus, the decoder fuzz seeds, the
# paper's tables (internal/workload/testdata/tables.txt) — in
# place (deterministic; `go run ./tools/gen -h` lists the trees).
# tools/gen's own test fails when a committed tree is stale.
gen:
	$(GO) run ./tools/gen

# Race-detector pass over everything, including the pipeline-vs-oracle
# stress test (jobs 1/4/16 against one shared MapCache), the gate's
# concurrent queries beside uploads, the archive's snapshot-vs-ingest
# consistency test, and internal/loopback's agents racing daemons and
# a shard killed mid-upload.
test-race:
	$(GO) test -race ./...

# Bounded fuzz smoke over every decoder of untrusted bytes (trace
# records, snaps, mapfiles, journals, an upload body, a shard's answer
# to the gate);
# the committed seed corpora live under <pkg>/testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceRecordDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSnapReader -fuzztime $(FUZZTIME) ./internal/snap
	$(GO) test -run '^$$' -fuzz FuzzMapFileVerify -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzFleetVerify -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzArchiveIndex -fuzztime $(FUZZTIME) ./internal/archive
	$(GO) test -run '^$$' -fuzz FuzzUploadBody -fuzztime $(FUZZTIME) ./internal/collect
	$(GO) test -run '^$$' -fuzz FuzzGateBucketsResponse -fuzztime $(FUZZTIME) ./internal/shard/gate

# Regression gate against another revision: five pairs of full
# benchmark runs, parent and change taking turns to go first, then
# `bench -compare` over the two result sets (bench/README.md, "A/A and
# compare"). About twenty minutes; not part of ci.
bench-check:
	@test -n "$(PARENT)" || { echo "usage: make bench-check PARENT=<rev>"; exit 2; }
	rm -rf .bench_build/check && git worktree prune && git worktree add --detach .bench_build/check/parent $(PARENT)
	for i in 1 2 3 4 5; do for side in $$([ $$((i%2)) = 1 ] && echo parent change || echo change parent); do \
		(cd $$([ $$side = parent ] && echo .bench_build/check/parent || echo .) && \
			bash bench/run.sh -save $(CURDIR)/.bench_build/check/$$side.json) || exit 1; \
	done; done
	bash bench/run.sh -compare .bench_build/check/parent.json .bench_build/check/change.json

# Each example is built once and runs twice from its build directory,
# outside the module, so an example that reads the repository at run
# time fails the gate. Both runs must print the same bytes (cmp), so a
# map-order leak into the rendering the examples share with snaps/
# fails it too.
examples:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && $(GO) build -o "$$d" ./examples/... && cd "$$d" && \
	for e in quickstart crosslang crossmachine deadlock; do \
		echo "--- examples/$$e" && ./$$e > $$e.1 && ./$$e > $$e.2 && \
		cat $$e.1 && cmp $$e.1 $$e.2 || exit 1; \
	done

bin:
	mkdir -p bin
	$(GO) build -o bin ./cmd/...

# snaps/ is committed (the deterministic example fleet the warehouse
# gate ingests) — clean must not remove it.
clean:
	rm -rf bin fault_evidence
