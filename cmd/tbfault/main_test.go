package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/fault"
	"traceback/internal/snap"
)

// repoRoot is the repository root, two levels above this package.
const repoRoot = "../.."

// TestRunReportDeterminism: the CLI's JSON report for a campaign
// slice is byte-identical across runs of the same seed.
func TestRunReportDeterminism(t *testing.T) {
	runOnce := func() []byte {
		out := filepath.Join(t.TempDir(), "report.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"run", "-seed", "9", "-kinds", "kill,signal",
			"-scenarios", "quickstart", "-report", "json", "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, different reports:\n%s\n---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"repro": "tbfault run -seed 9`)) {
		t.Errorf("report lacks repro line:\n%s", a)
	}
}

// TestReplayCommittedCorpus: the committed regression corpus passes
// replay — every snap reconstructs to its recorded faulting line and
// the known-bad case is detected.
func TestReplayCommittedCorpus(t *testing.T) {
	dir := filepath.Join(repoRoot, "snaps", "regressions")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "torn-module-table") {
		t.Errorf("replay output does not mention the known-bad case:\n%s", stdout.String())
	}
}

// copyCorpus clones the committed corpus into a temp dir so a test
// can tamper with it.
func copyCorpus(t *testing.T) string {
	t.Helper()
	src := filepath.Join(repoRoot, "snaps", "regressions")
	dst := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dst, "maps"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"", "maps"} {
		entries, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(src, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sub, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// TestSeededViolationFailsGate proves the replay gate has teeth, in
// both directions: corrupting a good case's snap turns replay red,
// and silently "fixing" the known-bad case (so its corruption is no
// longer detected) turns replay red too.
func TestSeededViolationFailsGate(t *testing.T) {
	t.Run("corrupted-good-case", func(t *testing.T) {
		dir := copyCorpus(t)
		corpus, err := fault.LoadCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		var victim string
		for _, cc := range corpus.Cases {
			if cc.Expect == fault.ExpectFaultLine {
				victim = cc.Snaps[0]
				break
			}
		}
		if victim == "" {
			t.Fatal("no good case in corpus")
		}
		corruptSnapFile(t, filepath.Join(dir, victim))
		var stdout, stderr bytes.Buffer
		if code := run([]string{"replay", "-dir", dir}, &stdout, &stderr); code == 0 {
			t.Fatalf("replay passed over a corrupted snap\nstdout: %s", stdout.String())
		}
	})

	t.Run("undetected-known-bad", func(t *testing.T) {
		dir := copyCorpus(t)
		corpus, err := fault.LoadCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		var badFile, goodFile string
		for _, cc := range corpus.Cases {
			switch cc.Expect {
			case fault.ExpectViolation:
				badFile = cc.Snaps[0]
			case fault.ExpectFaultLine:
				if cc.Scenario == "crossmachine" && goodFile == "" {
					goodFile = cc.Snaps[0]
				}
			}
		}
		if badFile == "" || goodFile == "" {
			t.Fatal("corpus lacks a known-bad or crossmachine case")
		}
		// Replace the corrupted snap with a clean one: the expected
		// violation is no longer detected, so the gate must go red.
		b, err := os.ReadFile(filepath.Join(dir, goodFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, badFile), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"replay", "-dir", dir}, &stdout, &stderr); code == 0 {
			t.Fatal("replay passed though the seeded corruption went undetected")
		}
		if !strings.Contains(stderr.String(), "UNDETECTED") {
			t.Errorf("stderr does not explain the undetected corruption: %s", stderr.String())
		}
	})
}

// corruptSnapFile rewrites a committed snap with a corrupted module
// table (the same seeded corruption tools/gen uses).
func corruptSnapFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.LoadAuto(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	fault.CorruptModuleTable(s)
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCompressed(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUsageErrors: bad invocations exit 2 without running anything;
// an unknown kind (collect is no longer one) lists the known kinds.
func TestUsageErrors(t *testing.T) {
	known := strings.Join(fault.AllKinds, " ")
	cases := []struct {
		args []string
		want string // in stderr
	}{
		{nil, "usage"},
		{[]string{"frobnicate"}, "unknown command"},
		{[]string{"run", "-kinds", "nope"}, known},
		{[]string{"run", "-kinds", "collect"}, known},
		{[]string{"run", "-report", "xml"}, "want text or json"},
		{[]string{"run", "stray"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		if code := run(tc.args, io.Discard, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("run(%v): stderr lacks %q: %s", tc.args, tc.want, stderr.String())
		}
	}
}

// TestReplayWriteFailure: a corpus verdict that cannot be written
// fails the replay (exit 1, reason on stderr).
func TestReplayWriteFailure(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	var stderr bytes.Buffer
	dir := filepath.Join(repoRoot, "snaps", "regressions")
	if code := run([]string{"replay", "-dir", dir}, full, &stderr); code != 1 {
		t.Errorf("replay with stdout on /dev/full: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "tbfault: ") {
		t.Error("no error on stderr")
	}
}

// TestRunOutWriteFailure: a report that cannot be written fails the
// run, in either format.
func TestRunOutWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, format := range []string{"text", "json"} {
		var stderr bytes.Buffer
		code := run([]string{"run", "-seed", "1", "-kinds", "kill", "-scenarios", "quickstart",
			"-report", format, "-out", "/dev/full"}, io.Discard, &stderr)
		if code != 1 {
			t.Errorf("-report %s -out /dev/full: exit %d, want 1 (stderr: %s)", format, code, stderr.String())
		}
	}
}
