package gate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/loopback"
	"traceback/internal/shard"
	"traceback/internal/shard/gate"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

func mkSnap(bucket int, host string, tm uint64) *snap.Snap {
	return &snap.Snap{
		Host: host, Process: "app", PID: 100, RuntimeID: 1,
		Reason: "exception SIGSEGV", Signal: 11, Time: tm,
		Modules: []snap.ModuleInfo{{Name: "app", Checksum: fmt.Sprintf("c%02d", bucket), DAGCount: 1}},
		Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
			SubWords: 4, Raw: []byte{byte(bucket), 0, 0, 0}}},
	}
}

// fleetSnap is the i-th snap of a test fleet: four buckets, three
// hosts, two snaps per rate window.
func fleetSnap(i int) *snap.Snap {
	return mkSnap(i%4, fmt.Sprintf("h%d", i%3), uint64(1+i)*archive.WindowWidth/2)
}

func startNode(t *testing.T, name string) *loopback.Node {
	t.Helper()
	n, err := loopback.StartNode(filepath.Join(t.TempDir(), name), collect.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Through n, not n.Arch: a restart reopens the warehouse.
	t.Cleanup(func() { n.Kill(); n.Close() })
	return n
}

// fleet is n shard daemons plus a single-node daemon holding the same
// snaps, all on loopback listeners so a shard can be killed and
// restarted on its address.
type fleet struct {
	ring   *shard.Ring
	shards []*loopback.Node
	single *loopback.Node
}

// ingest lands s where a healthy fleet would: on its ring home and on
// the single node.
func (f *fleet) ingest(t testing.TB, s *snap.Snap) {
	t.Helper()
	sig := archive.SignSnap(s, nil)
	if _, err := f.single.Arch.IngestUnique(s, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := f.home(t, s).Arch.IngestUnique(s, sig); err != nil {
		t.Fatal(err)
	}
}

func (f *fleet) home(t testing.TB, s *snap.Snap) *loopback.Node {
	t.Helper()
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	home, err := f.ring.Place(sum)
	if err != nil {
		t.Fatal(err)
	}
	return f.shards[home]
}

func (f *fleet) urls() []string {
	var out []string
	for _, n := range f.shards {
		out = append(out, n.URL)
	}
	return out
}

func newFleet(t *testing.T, n, snaps int) *fleet {
	t.Helper()
	ring, err := shard.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{ring: ring, single: startNode(t, "single")}
	for i := 0; i < n; i++ {
		f.shards = append(f.shards, startNode(t, fmt.Sprintf("s%d", i)))
	}
	for i := 0; i < snaps; i++ {
		f.ingest(t, fleetSnap(i))
	}
	return f
}

func newGate(t *testing.T, bases []string) (*gate.Gate, *httptest.Server) {
	t.Helper()
	g, err := gate.New(bases, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// gateCounts reads the counters that say what a fan-out round cost.
type gateCounts struct{ fanouts, notModified, reuse, merges uint64 }

func countsOf(g *gate.Gate) gateCounts {
	reg := g.Metrics()
	return gateCounts{
		fanouts:     reg.Counter("gate_fanouts_total", "").Load(),
		notModified: reg.Counter("gate_shard_not_modified_total", "").Load(),
		reuse:       reg.Counter("gate_merge_reuse_total", "").Load(),
		merges:      reg.Histogram("gate_merge_nanos", "", nil).Count(),
	}
}

func (c gateCounts) since(base gateCounts) gateCounts {
	return gateCounts{c.fanouts - base.fanouts, c.notModified - base.notModified, c.reuse - base.reuse, c.merges - base.merges}
}

func flightEvents(reg *telemetry.Registry, kind string) int {
	n := 0
	for _, e := range reg.FlightRecorder().Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestGateMatchesSingleNode: every triage route through the gate
// answers byte- and status-identically to a single daemon that
// ingested the whole fleet — the merge-as-pure-fold property, end to
// end over the wire — and keeps doing so while the gate revalidates
// instead of re-asking: cold, with nothing changed, after an ingest,
// after a GC removal, and after a shard restarted on its address. The
// counters say what each pass cost: seven of the ten requests reach a
// fan-out (three are refused on their parameters), a changed shard
// costs one transfer and one merge, and everything else is a 304 and
// the merged snapshot kept.
func TestGateMatchesSingleNode(t *testing.T) {
	f := newFleet(t, 3, 24)
	g, gw := newGate(t, f.urls())

	var sig string
	{
		_, body := get(t, f.single.URL+collect.PathBuckets)
		var tr collect.TopResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Buckets) < 2 {
			t.Fatalf("fleet built only %d bucket(s)", len(tr.Buckets))
		}
		sig = tr.Buckets[0].Sig
	}

	routes := []string{
		collect.PathBuckets,
		collect.PathTop + "?n=2",
		collect.PathTop,
		collect.PathRegressions,
		collect.PathRates + "?sig=" + sig[:8],
		collect.PathClusters,
		// The error cases are part of the surface too.
		collect.PathTop + "?n=-1",
		collect.PathTop + "?n=x",
		collect.PathRates,
		collect.PathRates + "?sig=ffffffffffff",
	}
	pass := func(name string, want gateCounts) {
		t.Helper()
		base := countsOf(g)
		for _, route := range routes {
			wantCode, wantBody := get(t, f.single.URL+route)
			gotCode, got := get(t, gw.URL+route)
			if gotCode != wantCode {
				t.Errorf("%s: %s: gate answered %d, single node %d", name, route, gotCode, wantCode)
				continue
			}
			if string(got) != string(wantBody) {
				t.Errorf("%s: %s: gate response differs from single node\ngate:\n%s\nsingle:\n%s", name, route, got, wantBody)
			}
		}
		if got := countsOf(g).since(base); got != want {
			t.Errorf("%s: the pass cost %+v, want %+v", name, got, want)
		}
	}
	oneChanged := gateCounts{fanouts: 7, notModified: 2 + 6*3, reuse: 6, merges: 1}

	pass("cold", gateCounts{fanouts: 7, notModified: 6 * 3, reuse: 6, merges: 1})
	pass("unchanged", gateCounts{fanouts: 7, notModified: 7 * 3, reuse: 7, merges: 0})

	f.ingest(t, fleetSnap(24))
	pass("after an ingest", oneChanged)

	// The fleet's oldest blob is the oldest on its shard too: the same
	// one-blob sweep removes it from both.
	oldest := f.home(t, fleetSnap(0)).Arch
	for _, a := range []*archive.Archive{f.single.Arch, oldest} {
		if res, err := a.GC(archive.GCPolicy{MaxBlobs: a.NumBlobs() - 1}); err != nil || res.Removed != 1 {
			t.Fatalf("GC: %+v, %v; want one removal", res, err)
		}
	}
	pass("after a GC removal", oneChanged)

	if err := f.shards[1].Kill(); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, gw.URL+collect.PathBuckets); code != http.StatusBadGateway {
		t.Errorf("buckets with shard 1 killed: %d, want 502", code)
	}
	if err := f.shards[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if n := flightEvents(g.Metrics(), "gate-shard-epoch"); n != 0 {
		t.Errorf("%d gate-shard-epoch event(s) before any restart was seen", n)
	}
	// Same journal, same record count, new epoch: the body is fetched
	// and merged again rather than trusted across the restart.
	pass("after a shard restart", oneChanged)
	if n := flightEvents(g.Metrics(), "gate-shard-epoch"); n != 1 {
		t.Errorf("%d gate-shard-epoch event(s) after one shard restart, want 1", n)
	}
}

// TestGateConcurrentQueriesSeeAcknowledgedWrites: queries running
// beside uploads, every one of which must be answered from shard lists
// fetched after it arrived. /v1/buckets names the blobs it lists, so
// an answer says which fleet it saw: that fleet must hold every upload
// acknowledged before the request was sent and none not yet begun when
// the response arrived, and the bytes must be exactly a single node's
// rendering of it. /v1/regressions lists counts only and is held to
// the same bounds. Run under -race by `make test-race`.
func TestGateConcurrentQueriesSeeAcknowledgedWrites(t *testing.T) {
	const preload, uploads, writers, readers = 12, 24, 2, 4
	f := newFleet(t, 3, preload)
	_, gw := newGate(t, f.urls())

	// begun[k] is set before upload k starts, acked[k] after it returns.
	var begun, acked [uploads]atomic.Bool
	sumOf := map[string]int{}
	var homes [uploads]*archive.Archive
	for k := 0; k < uploads; k++ {
		s := fleetSnap(preload + k)
		sum, _, err := archive.ChecksumSnap(s)
		if err != nil {
			t.Fatal(err)
		}
		sumOf[sum], homes[k] = k, f.home(t, s).Arch
	}
	marked := func(flags *[uploads]atomic.Bool) (set [uploads]bool) {
		for k := range flags {
			set[k] = flags[k].Load()
		}
		return set
	}

	type answer struct {
		route        string
		body         []byte
		acked, begun [uploads]bool
	}
	var wg, writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for k := w; k < uploads; k += writers {
				s := fleetSnap(preload + k)
				begun[k].Store(true)
				if _, err := homes[k].IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
					t.Error(err)
					return
				}
				acked[k].Store(true)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { writing.Wait(); close(done) }()
	answers := make([][]answer, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i, last := 0, false; !last; i++ {
				select {
				case <-done:
					last = true // one more query, after the last write
				default:
				}
				a := answer{route: collect.PathBuckets, acked: marked(&acked)}
				if (i+r)%2 == 1 {
					a.route = collect.PathRegressions
				}
				resp, err := http.Get(gw.URL + a.route)
				if err != nil {
					t.Error(err)
					return
				}
				a.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d, %v", a.route, resp.StatusCode, err)
					return
				}
				a.begun = marked(&begun)
				answers[r] = append(answers[r], a)
			}
		}(r)
	}
	wg.Wait()

	// rendered is what a single node holding the preload plus the given
	// uploads answers on /v1/buckets.
	rendered := map[[uploads]bool][]byte{}
	render := func(set [uploads]bool) []byte {
		if b, ok := rendered[set]; ok {
			return b
		}
		a, err := archive.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		for i := 0; i < preload+uploads; i++ {
			if i < preload || set[i-preload] {
				s := fleetSnap(i)
				if _, err := a.IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rec := httptest.NewRecorder()
		collect.NewServer(a, collect.ServerOptions{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodGet, collect.PathBuckets, nil))
		rendered[set] = rec.Body.Bytes()
		return rendered[set]
	}

	checked := 0
	for _, as := range answers {
		for _, a := range as {
			var ackedN, begunN uint64 = preload, preload
			for k := range a.acked {
				if a.acked[k] {
					ackedN++
				}
				if a.begun[k] {
					begunN++
				}
			}
			if a.route == collect.PathRegressions {
				var rep struct{ Assessments []struct{ Count uint64 } }
				if err := json.Unmarshal(a.body, &rep); err != nil {
					t.Fatal(err)
				}
				var total uint64
				for _, as := range rep.Assessments {
					total += as.Count
				}
				if total < ackedN || total > begunN {
					t.Errorf("regressions count %d occurrence(s); %d were acknowledged before the request, %d begun by its answer", total, ackedN, begunN)
				}
				continue
			}
			var tr collect.TopResponse
			if err := json.Unmarshal(a.body, &tr); err != nil {
				t.Fatal(err)
			}
			var saw [uploads]bool
			for _, b := range tr.Buckets {
				for _, ref := range b.Snaps {
					if k, ok := sumOf[ref.Sum]; ok {
						saw[k] = true
					}
				}
			}
			for k := range saw {
				if a.acked[k] && !saw[k] {
					t.Errorf("an answer misses upload %d, acknowledged before the request was sent", k)
				}
				if saw[k] && !a.begun[k] {
					t.Errorf("an answer lists upload %d, not begun when the response arrived", k)
				}
			}
			if !bytes.Equal(a.body, render(saw)) {
				t.Errorf("an answer is not a single node's rendering of the fleet it lists")
			}
			checked++
		}
	}
	if checked < readers {
		t.Fatalf("only %d /v1/buckets answer(s) checked", checked)
	}
}

// scriptedShard is a shard whose PathBuckets answers the test writes:
// it records the If-None-Match of each request and plays reply.
type scriptedShard struct {
	mu    sync.Mutex
	reply func(w http.ResponseWriter, ifNoneMatch string)
	asked []string
}

func (s *scriptedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := r.Header.Get("If-None-Match")
	s.asked = append(s.asked, held)
	s.reply(w, held)
}

func (s *scriptedShard) play(reply func(w http.ResponseWriter, ifNoneMatch string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reply = reply
}

func (s *scriptedShard) lastAsked() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.asked[len(s.asked)-1]
}

// honest answers the way a daemon does: the list under its tag, or 304
// when the request already holds that tag.
func honest(tag string, buckets []archive.Bucket) func(http.ResponseWriter, string) {
	return func(w http.ResponseWriter, held string) {
		w.Header().Set("ETag", tag)
		if held == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		collect.WriteJSON(w, http.StatusOK, collect.TopResponse{V: 1, Buckets: buckets})
	}
}

func rawReply(status int, tag, body string) func(http.ResponseWriter, string) {
	return func(w http.ResponseWriter, _ string) {
		if tag != "" {
			w.Header().Set("ETag", tag)
		}
		w.WriteHeader(status)
		io.WriteString(w, body)
	}
}

func listOf(sig string, count uint64) []archive.Bucket {
	return []archive.Bucket{{Sig: sig, Title: "bucket " + sig, Count: count, FirstSeen: 10, LastSeen: 10,
		Hosts: []string{"h"}, Windows: []archive.RateWindow{{Start: 0, Count: count}}}}
}

// renderBuckets is the /v1/buckets body of a merged list.
func renderBuckets(lists ...[]archive.Bucket) []byte {
	rec := httptest.NewRecorder()
	collect.WriteJSON(rec, http.StatusOK, collect.TopResponse{V: 1, Buckets: shard.MergeBuckets(lists...)})
	return rec.Body.Bytes()
}

// TestGateDistrustsShardAnswers: what the gate keeps across queries is
// only what a shard said under the protocol. Any other answer is a 502
// that leaves the kept view exactly as it was — the next request
// revalidates with the same tag — and an answer without a tag is used
// for its round and not kept at all.
func TestGateDistrustsShardAnswers(t *testing.T) {
	good := listOf("aa", 3)
	goodBody := string(renderBuckets(good))
	sh := &scriptedShard{}
	ts := httptest.NewServer(sh)
	defer ts.Close()
	g, gw := newGate(t, []string{ts.URL})

	// A 304 to a request that carried no tag names nothing.
	sh.play(rawReply(http.StatusNotModified, `"t1"`, ""))
	if code, _ := get(t, gw.URL+collect.PathBuckets); code != http.StatusBadGateway {
		t.Errorf("304 to an unconditional request: gate answered %d, want 502", code)
	}

	sh.play(honest(`"t1"`, good))
	if code, body := get(t, gw.URL+collect.PathBuckets); code != http.StatusOK || string(body) != goodBody {
		t.Fatalf("honest shard: gate answered %d\n%s", code, body)
	}
	if sh.lastAsked() != "" {
		t.Errorf("first successful request carried If-None-Match %q: a failed round populated the cache", sh.lastAsked())
	}

	padded := goodBody + strings.Repeat(" ", 64<<20)
	for _, bad := range []struct {
		name  string
		reply func(http.ResponseWriter, string)
	}{
		{"a 304 naming a tag the gate does not hold", rawReply(http.StatusNotModified, `"t9"`, "")},
		{"a 304 naming no tag", rawReply(http.StatusNotModified, "", "")},
		{"trailing data", rawReply(http.StatusOK, `"t2"`, goodBody+"{}")},
		{"an unknown response version", rawReply(http.StatusOK, `"t2"`, `{"v":2,"buckets":[]}`)},
		{"a truncated body", rawReply(http.StatusOK, `"t2"`, goodBody[:len(goodBody)/2])},
		{"a body past the cap", rawReply(http.StatusOK, `"t2"`, padded)},
		{"a weak tag", rawReply(http.StatusOK, `W/"t2"`, goodBody)},
		{"an unquoted tag", rawReply(http.StatusOK, `t2`, goodBody)},
		{"a server error", rawReply(http.StatusInternalServerError, `"t2"`, goodBody)},
	} {
		errsBefore := g.Metrics().Counter("gate_fanout_errors_total", "").Load()
		sh.play(bad.reply)
		if code, _ := get(t, gw.URL+collect.PathBuckets); code != http.StatusBadGateway {
			t.Errorf("%s: gate answered %d, want 502", bad.name, code)
		}
		if got := g.Metrics().Counter("gate_fanout_errors_total", "").Load(); got != errsBefore+1 {
			t.Errorf("%s: gate_fanout_errors_total moved by %d, want 1", bad.name, got-errsBefore)
		}
		// Neither populated nor cleared: the tag held before still goes out.
		sh.play(honest(`"t1"`, good))
		base := countsOf(g)
		if code, body := get(t, gw.URL+collect.PathBuckets); code != http.StatusOK || string(body) != goodBody {
			t.Errorf("after %s: gate answered %d\n%s", bad.name, code, body)
		}
		if sh.lastAsked() != `"t1"` {
			t.Errorf("after %s the gate revalidates with %q, want the tag it held before", bad.name, sh.lastAsked())
		}
		if got := countsOf(g).since(base); got != (gateCounts{fanouts: 1, notModified: 1, reuse: 1}) {
			t.Errorf("after %s the next round cost %+v, want one 304 and the merge kept", bad.name, got)
		}
	}

	// An older shard sends no tag: its list is used, and asked for again
	// in full — and merged again — every time.
	older := listOf("bb", 5)
	sh.play(rawReply(http.StatusOK, "", string(renderBuckets(older))))
	for i := 0; i < 2; i++ {
		base := countsOf(g)
		if code, body := get(t, gw.URL+collect.PathBuckets); code != http.StatusOK || string(body) != string(renderBuckets(older)) {
			t.Errorf("untagged answer %d: gate answered %d\n%s", i, code, body)
		}
		if i > 0 && sh.lastAsked() != "" {
			t.Errorf("after an untagged answer the gate sent If-None-Match %q", sh.lastAsked())
		}
		if got := countsOf(g).since(base); got != (gateCounts{fanouts: 1, merges: 1}) {
			t.Errorf("untagged answer %d cost %+v, want a transfer and a merge", i, got)
		}
	}
}

// TestGateValidatesBeforeFanOut: a malformed request is refused on
// its own merits — 400, not the 502 of the dead shard behind it — and
// costs no fan-out round.
func TestGateValidatesBeforeFanOut(t *testing.T) {
	f := newFleet(t, 2, 4)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	g, ts := newGate(t, []string{f.shards[0].URL, dead.URL})
	fanouts := g.Metrics().Counter("gate_fanouts_total", "")

	if code, _ := get(t, ts.URL+collect.PathTop); code != http.StatusBadGateway {
		t.Fatalf("top with a dead shard: %d, want 502", code)
	}
	before := fanouts.Load()
	for _, route := range []string{collect.PathTop + "?n=x", collect.PathRates} {
		if code, _ := get(t, ts.URL+route); code != http.StatusBadRequest {
			t.Errorf("%s with a dead shard: %d, want 400", route, code)
		}
	}
	if got := fanouts.Load(); got != before {
		t.Errorf("malformed requests cost %d fan-out round(s)", got-before)
	}
}

// TestGateShutdownBeforeServe: a Shutdown that wins the race with the
// serving goroutine must still stop it — Serve returns ErrServerClosed
// instead of accepting forever on a listener nobody will close.
func TestGateShutdownBeforeServe(t *testing.T) {
	g, err := gate.New([]string{"http://127.0.0.1:1"}, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- g.Serve(l) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve after Shutdown: %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown never returned")
	}
}

// TestGateLoadSnapFindsFailoverResidue: a blob resident only off its
// home shard (the footprint of an agent failover) is still found by
// the gate's fallback scan.
func TestGateLoadSnapFindsFailoverResidue(t *testing.T) {
	f := newFleet(t, 2, 0)
	s := mkSnap(1, "h1", 1000)
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	away := f.shards[0]
	if f.home(t, s) == away {
		away = f.shards[1]
	}
	if _, err := away.Arch.IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
		t.Fatal(err)
	}

	g, _ := newGate(t, f.urls())
	got, err := g.LoadSnap(sum)
	if err != nil {
		t.Fatalf("LoadSnap across shards: %v", err)
	}
	gotSum, _, err := archive.ChecksumSnap(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != sum {
		t.Errorf("fetched snap re-checksums to %s, want %s", gotSum[:8], sum[:8])
	}
	// A content address no shard holds — or one too short to print
	// twelve characters of — is an error, not a panic.
	for _, missing := range []string{strings.Repeat("0", 64), "00000000"} {
		if _, err := g.LoadSnap(missing); err == nil {
			t.Errorf("LoadSnap(%q) found a blob nobody stored", missing)
		}
	}
}

// TestGateShardDownFailsClosed: with one shard unreachable, queries
// answer 502 (a partial merge would be silently wrong) and /healthz
// reports degraded with the per-shard breakdown.
func TestGateShardDownFailsClosed(t *testing.T) {
	f := newFleet(t, 3, 12)
	// Rebind shard 2's URL to a dead server.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, gw := newGate(t, []string{f.shards[0].URL, f.shards[1].URL, dead.URL})

	if code, _ := get(t, gw.URL+collect.PathBuckets); code != http.StatusBadGateway {
		t.Errorf("buckets with a dead shard: %d, want 502", code)
	}
	code, body := get(t, gw.URL+collect.PathHealth)
	if code != http.StatusServiceUnavailable {
		t.Errorf("healthz with a dead shard: %d, want 503", code)
	}
	var hr gate.HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.State != gate.HealthDegraded {
		t.Errorf("state %q, want %q", hr.State, gate.HealthDegraded)
	}
	if len(hr.Shards) != 3 || hr.Shards[2].State != "down" {
		t.Errorf("per-shard states %+v, want shard 2 down", hr.Shards)
	}

	// A draining shard also degrades the gate, with its own state.
	f.shards[1].Srv.BeginDrain()
	_, body = get(t, gw.URL+collect.PathHealth)
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Shards[1].State != collect.HealthDraining {
		t.Errorf("draining shard reports %q, want %q", hr.Shards[1].State, collect.HealthDraining)
	}
}

// blobReply answers every GET /v1/blob/{sum} with one fixed body: a
// shard that lies about what it holds.
func blobReply(t *testing.T, body []byte) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGateLoadSnapDistrustsBlobs: a shard's blob counts only when its
// bytes are the snap the content address names. A home shard that
// answers with some other valid snap is passed over for the honest
// failover residue off-home; with nothing but such answers, LoadSnap
// fails and says why.
func TestGateLoadSnapDistrustsBlobs(t *testing.T) {
	ring, err := shard.NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	s := mkSnap(1, "h1", 1000)
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	home, err := ring.Place(sum)
	if err != nil {
		t.Fatal(err)
	}
	var gz, plain bytes.Buffer
	if err := mkSnap(2, "h1", 1000).SaveCompressed(&gz); err != nil {
		t.Fatal(err)
	}
	if err := mkSnap(3, "h1", 1000).Save(&plain); err != nil {
		t.Fatal(err)
	}
	gzLiar, plainLiar := blobReply(t, gz.Bytes()), blobReply(t, plain.Bytes())

	honest := startNode(t, "honest")
	if _, err := honest.Arch.IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 2)
	urls[home], urls[1-home] = gzLiar.URL, honest.URL
	g, _ := newGate(t, urls)
	got, err := g.LoadSnap(sum)
	if err != nil {
		t.Fatalf("LoadSnap past a lying home shard: %v", err)
	}
	if gotSum, _, err := archive.ChecksumSnap(got); err != nil || gotSum != sum {
		t.Errorf("LoadSnap returned the snap addressed %.12s (%v), want %.12s", gotSum, err, sum)
	}

	urls[home], urls[1-home] = gzLiar.URL, plainLiar.URL
	g, _ = newGate(t, urls)
	if got, err := g.LoadSnap(sum); err == nil || !strings.Contains(err.Error(), "addressed") {
		t.Errorf("LoadSnap over lying shards: %v, %v; want an error naming the mismatch", got, err)
	}
}

// TestGateHealthBoundsShardAnswer: a shard whose /healthz answer never
// ends is read only as far as a HealthResponse can reach, then
// reported down — long before the gate's 30 s client timeout.
func TestGateHealthBoundsShardAnswer(t *testing.T) {
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"v":1,"state":"ok"`)
		pad := bytes.Repeat([]byte(" "), 32<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
	}))
	defer endless.Close()
	_, gw := newGate(t, []string{endless.URL})

	t0 := time.Now()
	code, body := get(t, gw.URL+collect.PathHealth)
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("an endless /healthz held the gate for %v", d)
	}
	var hr gate.HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || len(hr.Shards) != 1 || hr.Shards[0].State != "down" {
		t.Errorf("gate /healthz: %d %+v, want 503 with the shard down", code, hr)
	}
}
