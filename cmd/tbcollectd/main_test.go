package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/snap"
)

// syncBuffer is a bytes.Buffer safe to read while run() writes it
// from the daemon goroutine.
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

// TestDaemonServesAndDrains boots the daemon main on an ephemeral
// port, hits its health and metrics routes, then delivers a signal
// and checks the graceful-drain exit.
func TestDaemonServesAndDrains(t *testing.T) {
	store := filepath.Join(t.TempDir(), "wh")
	var stdout, stderr syncBuffer
	sigs := make(chan os.Signal, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-listen", "127.0.0.1:0", "-store", store}, &stdout, &stderr, sigs)
	}()

	base := waitForListen(t, &stdout)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}

	sigs <- os.Interrupt
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exited %d: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after signal")
	}
	if out := stdout.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Errorf("drain not reported:\n%s", out)
	}
	// The store closed cleanly: the index was flushed.
	if _, err := os.Stat(filepath.Join(store, "index.json")); err != nil {
		t.Errorf("index not flushed at shutdown: %v", err)
	}
}

// TestDaemonMapsSignStrong: with -maps the daemon signs an upload on
// those mapfiles, so a committed snap is filed under the strong
// signature archive.SignSnap gives with them; without -maps the daemon
// has no mapfiles and files it under the weak signature.
func TestDaemonMapsSignStrong(t *testing.T) {
	path := filepath.Join("..", "..", "snaps", "quickstart-app-1.snap.json.gz")
	mapsDir := filepath.Join("..", "..", "snaps", "maps")
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	maps, _, err := recon.NewMapDir(mapsDir)
	if err != nil {
		t.Fatal(err)
	}
	strong, weak := archive.SignSnap(s, maps), archive.SignSnap(s, nil)
	if strong.Weak || !weak.Weak {
		t.Fatalf("signatures: strong %+v, weak %+v", strong, weak)
	}

	for _, tc := range []struct {
		name string
		args []string
		want archive.Signature
	}{
		{"maps", []string{"-maps", mapsDir}, strong},
		{"no-maps", nil, weak},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr syncBuffer
			sigs := make(chan os.Signal, 1)
			exited := make(chan int, 1)
			args := append([]string{"-listen", "127.0.0.1:0", "-store", filepath.Join(t.TempDir(), "wh")}, tc.args...)
			go func() { exited <- run(args, &stdout, &stderr, sigs) }()
			defer func() {
				sigs <- os.Interrupt
				if code := <-exited; code != 0 {
					t.Errorf("daemon exited %d: %s", code, stderr.String())
				}
			}()

			req, err := http.NewRequest(http.MethodPost, waitForListen(t, &stdout)+collect.PathSnap, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/gzip")
			req.Header.Set(collect.HeaderSum, sum)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var ur collect.UploadResponse
			if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
				t.Fatalf("upload: %s: %v", resp.Status, err)
			}
			if ur.Sig != tc.want.ID || ur.Weak != tc.want.Weak {
				t.Errorf("filed under %s (weak=%v), want %s (weak=%v)", ur.Sig, ur.Weak, tc.want.ID, tc.want.Weak)
			}
		})
	}
}

// waitForListen parses the daemon's "listening on http://addr" line.
func waitForListen(t *testing.T, stdout *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		out := stdout.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			if j := strings.IndexAny(out[i:], " \n"); j > 0 {
				return out[i : i+j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never reported its address:\n%s", stdout.String())
	return ""
}
