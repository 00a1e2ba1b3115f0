package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"traceback/internal/collect"
	"traceback/internal/loopback"
	"traceback/internal/shard/gate"
)

// syncBuffer is a goroutine-safe bytes.Buffer: watch writes from the
// test goroutine races the assertions otherwise.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, out *syncBuffer, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(out.String(), substr) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never saw %q in watch output:\n%s", substr, out.String())
}

// TestWatchReconnectsAfterDaemonRestart: kill the watched daemon mid-
// watch, restart it on the same address, and the watch must ride the
// outage out — unreachable ticks with backoff, then a one-line
// reconnected notice, never an exit.
func TestWatchReconnectsAfterDaemonRestart(t *testing.T) {
	node, err := loopback.StartNode(filepath.Join(t.TempDir(), "wh"), collect.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var out syncBuffer
	var errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"watch", "-url", node.URL, "-interval", "5ms", "-count", "400"}, &out, &errb)
	}()

	waitFor(t, &out, "state=ok")

	// Kill the daemon: the listener closes, polls start failing.
	if err := node.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, &out, "unreachable")

	// Restart on the same address; the watch must notice and say so.
	if err := node.Restart(); err != nil {
		t.Fatal(err)
	}
	defer node.Kill()

	waitFor(t, &out, "reconnected to "+node.URL)

	if code := <-done; code != 0 {
		t.Fatalf("watch exited %d: %s", code, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "failed attempt(s)") {
		t.Errorf("reconnect notice does not count the outage:\n%s", text)
	}
	// The notice is one line.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "reconnected to") && strings.Count(line, "tick") != 1 {
			t.Errorf("malformed reconnect notice: %q", line)
		}
	}
}

// TestWatchNamesAGatesRefusal: a gate with a shard down answers its
// triage routes 502 text/plain; the tick line must carry that status
// and the gate's reason, not a JSON syntax error.
func TestWatchNamesAGatesRefusal(t *testing.T) {
	var urls []string
	var nodes []*loopback.Node
	for _, name := range []string{"s0", "s1"} {
		n, err := loopback.StartNode(filepath.Join(t.TempDir(), name), collect.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Kill(); n.Close() })
		nodes, urls = append(nodes, n), append(urls, n.URL)
	}
	gw, err := loopback.StartGate(urls, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Kill() })
	if err := nodes[1].Kill(); err != nil {
		t.Fatal(err)
	}

	out := mustRun(t, "watch", "-url", gw.URL, "-interval", "1ms", "-count", "1")
	for _, want := range []string{"tick 1: state=degraded", "regressions: 502 Bad Gateway: ", nodes[1].URL} {
		if !strings.Contains(out, want) {
			t.Errorf("watch against a gate with a shard down lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "invalid character") {
		t.Errorf("watch reported a JSON syntax error for a plain-text refusal:\n%s", out)
	}
}
