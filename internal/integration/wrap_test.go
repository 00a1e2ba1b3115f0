package integration_test

import (
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/tbrt"
)

// TestWrappedBufferSuffix: with a small trace buffer the oldest
// history is overwritten, but what remains must be an exact SUFFIX of
// the ground-truth line sequence — the flight recorder may forget the
// distant past, never garble the recent past.
func TestWrappedBufferSuffix(t *testing.T) {
	src := `int gdata[8];
int step(int x) {
	if (x % 3 == 0) {
		gdata[x & 7] = x;
		return x * 2;
	}
	return x + 1;
}
int main(int a) {
	int acc = 0;
	for (int i = 0; i < 600; i = i + 1) {
		acc = (acc + step(i + a)) % 10007;
	}
	exit(acc % 251);
}`
	mod, err := minic.Compile("wrap", "wrap.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	oracle, exitO := oracleLines(t, mod, 3)

	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bufWords := range []int{512, 2048, 8192} {
		s := launchApp(t, 99, &tbrt.Config{BufferWords: bufWords, NumBuffers: 1, SubBuffers: 4}, 3, res.Module)
		if p := runApp(t, s); p.ExitCode != exitO {
			t.Fatalf("bufWords %d: exit %d vs oracle %d", bufWords, p.ExitCode, exitO)
		}
		got, truncated := threadLines(t, s, res.Map)
		if len(got) < 5 {
			t.Fatalf("bufWords %d: only %d lines recovered", bufWords, len(got))
		}
		// After truncation the first reconstructed block may be a
		// partial run (a DAG record whose earlier context is gone);
		// skip up to one leading line when matching the suffix.
		if !isSuffixWithSlack(oracle, got, 2) {
			t.Errorf("bufWords %d: reconstruction is not a suffix of ground truth\nlast oracle: %v\nrecovered head: %v",
				bufWords, tail(oracle, 12), head(got, 12))
		}
		if bufWords == 512 && !truncated {
			t.Errorf("bufWords %d: small buffer not marked truncated", bufWords)
		}
	}
}

// isSuffixWithSlack reports whether got (minus up to slack leading
// entries) appears as a suffix of oracle.
func isSuffixWithSlack(oracle, got []uint32, slack int) bool {
	for skip := 0; skip <= slack && skip < len(got); skip++ {
		g := got[skip:]
		if len(g) > len(oracle) {
			continue
		}
		o := oracle[len(oracle)-len(g):]
		match := true
		for i := range g {
			if g[i] != o[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func head(s []uint32, n int) []uint32 {
	if len(s) < n {
		return s
	}
	return s[:n]
}

func tail(s []uint32, n int) []uint32 {
	if len(s) < n {
		return s
	}
	return s[len(s)-n:]
}
