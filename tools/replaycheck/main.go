// replaycheck is the record-and-replay gate (`make replay-check`):
//
//  1. Every example scenario is re-run with recording on; the fresh
//     harvest must match the committed snaps/ fleet byte for byte
//     (staleness — fix: make gensnaps), and the recording must replay
//     to a byte-identical harvest with zero divergence.
//  2. Every committed regression-corpus case (snaps/regressions/)
//     except the seeded-known-bad ones must carry a recording that
//     replays its snaps byte for byte — a snap in the corpus is not
//     just evidence, it is a re-executable program.
//  3. Seeded divergent logs — a corrupted checkpoint and a truncated
//     tail — must be rejected with machine-readable divergence
//     reports of the right kind. If corruption replays cleanly, the
//     conformance checker has lost its teeth.
//
// The VM is deterministic, so the whole gate is deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"traceback/internal/fault"
	"traceback/internal/replay"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/trace"
)

func main() {
	snapsDir := flag.String("snaps", "snaps", "committed example snap fleet")
	regressDir := flag.String("regress", filepath.Join("snaps", "regressions"), "committed regression corpus")
	flag.Parse()
	failed := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "replaycheck: FAIL "+format+"\n", args...)
		failed++
	}

	checkScenarios(*snapsDir, fail)
	checkCorpus(*regressDir, fail)
	checkDivergenceGate(fail)

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "replaycheck: %d failure(s)\n", failed)
		os.Exit(1)
	}
	fmt.Println("replaycheck: every snap replays byte-identically; divergence gate holds")
}

// checkScenarios records each example scenario fresh, holds the
// harvest to the committed fleet (staleness), and replay-verifies the
// recording.
func checkScenarios(dir string, fail func(string, ...any)) {
	for _, b := range scenario.Builders {
		l, res, err := replay.Record(b.Name, false, false)
		if err != nil {
			fail("%s: record: %v", b.Name, err)
			continue
		}
		committed, names, err := committedSnaps(dir, b.Name)
		if err != nil {
			fail("%s: %v", b.Name, err)
			continue
		}
		if len(committed) != len(res.Snaps) {
			fail("%s: %d committed snap(s), fresh run produced %d (stale snaps/? fix: make gensnaps)",
				b.Name, len(committed), len(res.Snaps))
			continue
		}
		for i := range committed {
			want, err := replay.StrippedBytes(committed[i])
			if err != nil {
				fail("%s: %v", names[i], err)
				continue
			}
			got, err := replay.StrippedBytes(res.Snaps[i])
			if err != nil {
				fail("%s: %v", b.Name, err)
				continue
			}
			if string(want) != string(got) {
				fail("%s: differs from the fresh run (stale snaps/? fix: make gensnaps)", names[i])
			}
		}
		v, err := replay.Verify(l, res.Snaps)
		if err != nil {
			fail("%s: replay: %v", b.Name, err)
			continue
		}
		if v.Divergence != nil {
			fail("%s: replay diverged: %v", b.Name, v.Divergence)
			continue
		}
		if !v.Identical {
			fail("%s: replay not byte-identical", b.Name)
			continue
		}
		fmt.Printf("ok   scenario %-14s %d snap(s) replay byte-identically (%d recorded event(s))\n",
			b.Name, len(res.Snaps), len(l.Events))
	}
}

// committedSnaps loads the committed fleet of one scenario in harvest
// order (the trailing index in the file name).
func committedSnaps(dir, name string) ([]*snap.Snap, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, name+"-*.snap.json.gz"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no committed snaps match %s-*", name)
	}
	idx := func(p string) int {
		base := strings.TrimSuffix(filepath.Base(p), ".snap.json.gz")
		var n int
		fmt.Sscanf(base[strings.LastIndex(base, "-")+1:], "%d", &n)
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return idx(paths[i]) < idx(paths[j]) })
	var snaps []*snap.Snap
	for _, p := range paths {
		s, err := snap.LoadFile(p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
		snaps = append(snaps, s)
	}
	return snaps, paths, nil
}

// checkCorpus replays every committed regression case from its
// embedded recording. Seeded-known-bad cases (ExpectViolation) are
// skipped: their snaps are post-hoc corrupted evidence, not faithful
// recordings of an execution.
func checkCorpus(dir string, fail func(string, ...any)) {
	corpus, err := fault.LoadCorpus(dir)
	if err != nil {
		fail("corpus: %v", err)
		return
	}
	for i := range corpus.Cases {
		cc := &corpus.Cases[i]
		if cc.Expect == fault.ExpectViolation {
			fmt.Printf("skip corpus   %-14s seeded-known-bad (not a faithful recording)\n", cc.Name)
			continue
		}
		var snaps []*snap.Snap
		bad := false
		for _, name := range cc.Snaps {
			s, err := snap.LoadFile(filepath.Join(dir, name))
			if err != nil {
				fail("corpus %s: %s: %v", cc.Name, name, err)
				bad = true
				break
			}
			snaps = append(snaps, s)
		}
		if bad {
			continue
		}
		l, err := replay.FromSnap(snaps[0])
		if err != nil {
			fail("corpus %s: %v (regenerate: make genregress)", cc.Name, err)
			continue
		}
		v, err := replay.Verify(l, snaps)
		if err != nil {
			fail("corpus %s: replay: %v", cc.Name, err)
			continue
		}
		if v.Divergence != nil {
			fail("corpus %s: replay diverged: %v", cc.Name, v.Divergence)
			continue
		}
		if !v.Identical {
			fail("corpus %s: replay not byte-identical", cc.Name)
			continue
		}
		fmt.Printf("ok   corpus   %-14s %d snap(s) replay byte-identically\n", cc.Name, len(snaps))
	}
}

// checkDivergenceGate seeds corrupt logs and requires machine-readable
// rejection.
func checkDivergenceGate(fail func(string, ...any)) {
	l, _, err := replay.Record("quickstart", false, false)
	if err != nil {
		fail("divergence gate: record: %v", err)
		return
	}

	// A checkpoint clock the original run never saw.
	bad := &replay.Log{Scenario: l.Scenario, Interval: l.Interval}
	bad.Events = append([]trace.NondetRecord(nil), l.Events...)
	corrupted := false
	for i := range bad.Events {
		if bad.Events[i].Kind == trace.NDQuantum {
			bad.Events[i].Clock++
			corrupted = true
			break
		}
	}
	if !corrupted {
		fail("divergence gate: recording has no checkpoint to corrupt")
		return
	}
	expectDivergence(bad, "event-mismatch", fail)

	// A torn log: the tail event never arrives.
	short := &replay.Log{Scenario: l.Scenario, Interval: l.Interval}
	short.Events = append([]trace.NondetRecord(nil), l.Events[:len(l.Events)-1]...)
	expectDivergence(short, "log-exhausted", fail)
}

func expectDivergence(l *replay.Log, kind string, fail func(string, ...any)) {
	res, err := replay.Run(l)
	if err != nil {
		fail("divergence gate (%s): %v", kind, err)
		return
	}
	if res.Divergence == nil {
		fail("divergence gate: seeded %s corruption replayed CLEANLY — conformance checking lost its teeth", kind)
		return
	}
	if res.Divergence.Kind != kind {
		fail("divergence gate: kind %q, want %q", res.Divergence.Kind, kind)
		return
	}
	// Machine-readable: the error message must embed parseable JSON.
	msg := res.Divergence.Error()
	i := strings.Index(msg, "{")
	var parsed replay.Divergence
	if i < 0 || json.Unmarshal([]byte(msg[i:]), &parsed) != nil || parsed.Kind != kind {
		fail("divergence gate: report %q is not machine-readable", msg)
		return
	}
	fmt.Printf("ok   divergence %-12s rejected with machine-readable report\n", kind)
}
