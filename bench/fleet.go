package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/shard"
	"traceback/internal/shard/gate"
	"traceback/internal/snap"
	"traceback/internal/triage"
)

const numShards = 3

// parallel calls fn(0) … fn(n-1) from jobs goroutines and returns the
// first error; after an error no further call starts.
func parallel(jobs, n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i, stop := next, first != nil
				next++
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// fleet is the warehouse side of a workload: three tbcollectd shards,
// a gate in front of them, and one shard-aware agent with its spool,
// all in this process over loopback HTTP. One client with one
// keep-alive connection asks every query: a closed loop.
type fleet struct {
	dir    string
	pop    *population
	maps   *recon.MapCache
	ring   *shard.Ring
	archs  []*archive.Archive
	srvs   []*collect.Server
	shards []*httptest.Server
	gate   *gate.Gate
	front  *httptest.Server
	agent  *collect.Agent
	spool  string
	client *http.Client

	// newest is the start of the newest two rate windows; stamp hands
	// out fresh times inside them, so shipping grows journals without
	// adding a window.
	newest uint64
	stamp  uint64
	// counts is what /v1/regressions must report per signature;
	// committed every snap the shards hold, for the reference node.
	counts    map[string]uint64
	committed []committed
	routes    []string
}

type committed struct {
	snap *snap.Snap
	sig  archive.Signature
}

// bootFleet starts the daemons under dir and preloads the shards,
// by ring placement and direct ingest, with the population restamped
// into each of windows consecutive rate windows.
func bootFleet(dir string, pop *population, windows, jobs int) (*fleet, error) {
	f := &fleet{dir: dir, pop: pop, counts: map[string]uint64{}, spool: filepath.Join(dir, "spool")}
	f.maps = pop.mapCache()
	var err error
	if f.ring, err = shard.NewRing(numShards); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(f.spool, 0o755); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < numShards; i++ {
		arch, err := archive.Open(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		f.archs = append(f.archs, arch)
		srv := collect.NewServer(arch, collect.ServerOptions{Maps: f.maps})
		f.srvs = append(f.srvs, srv)
		ts := httptest.NewServer(srv.Handler())
		f.shards = append(f.shards, ts)
		urls = append(urls, ts.URL)
	}

	W := archive.WindowWidth
	for win := 0; win < windows; win++ {
		for i, s := range pop.snaps {
			cp := *s
			cp.Time = uint64(win)*W + W/4 + uint64(i)
			f.counts[pop.sigs[i].ID]++
			f.committed = append(f.committed, committed{&cp, pop.sigs[i]})
		}
	}
	if windows >= 2 {
		f.newest = uint64(windows-2) * W
	}
	f.stamp = W / 2
	err = parallel(jobs, len(f.committed), func(i int) error {
		c := f.committed[i]
		sum, _, err := archive.ChecksumSnap(c.snap)
		if err != nil {
			return err
		}
		home, err := f.ring.Place(sum)
		if err != nil {
			return err
		}
		_, err = f.archs[home].Ingest(c.snap, c.sig)
		return err
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("preload: %w", err)
	}

	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	if f.gate, err = gate.New(urls, gate.Options{Maps: f.maps}); err != nil {
		f.close()
		return nil, err
	}
	f.front = httptest.NewServer(f.gate.Handler())
	f.agent, err = collect.NewFleetAgent(f.spool, urls, collect.AgentOptions{Seed: 1, BackoffBase: 10 * time.Millisecond})
	if err != nil {
		f.close()
		return nil, err
	}
	// Warm the gate's caches (cluster exemplars, distances) and learn
	// a signature to ask /v1/rates about.
	body, _, err := f.get(nil, collect.PathBuckets)
	if err != nil {
		f.close()
		return nil, err
	}
	var top collect.TopResponse
	if err := json.Unmarshal(body, &top); err != nil || len(top.Buckets) == 0 {
		f.close()
		return nil, fmt.Errorf("gate serves no buckets after preload (%v)", err)
	}
	f.routes = []string{
		collect.PathBuckets, collect.PathTop, collect.PathRegressions,
		collect.PathRates + "?sig=" + top.Buckets[0].Sig[:16], collect.PathClusters,
	}
	for _, r := range f.routes {
		if _, _, err := f.get(nil, r); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.front != nil {
		f.front.Close()
	}
	for _, ts := range f.shards {
		ts.Close()
	}
	for _, a := range f.archs {
		a.Close()
	}
}

// get asks the gate one query and returns the body and the latency
// the client saw.
func (f *fleet) get(tr *tracer, route string) ([]byte, time.Duration, error) {
	done := tr.span("gate.query")
	defer done()
	t0 := time.Now()
	resp, err := f.client.Get(f.front.URL + route)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %s: %.200s", route, resp.Status, body)
	}
	return body, d, nil
}

// fresh copies population snap i under a time nobody has used, inside
// the newest two windows: new content, known signature.
func (f *fleet) fresh(i int) (*snap.Snap, archive.Signature) {
	cp := *f.pop.snaps[i]
	f.stamp++
	cp.Time = f.newest + f.stamp
	return &cp, f.pop.sigs[i]
}

func (f *fleet) spoolSnap(tr *tracer, s *snap.Snap) error {
	done := tr.span("collect.Spool")
	_, err := collect.Spool(f.spool, s)
	done()
	return err
}

func (f *fleet) drain(tr *tracer) error {
	done := tr.span("collect.Agent.Drain")
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return f.agent.Drain(ctx)
}

// shipment is where one time-to-diagnosis operation spent its time.
type shipment struct {
	spool, drain, query time.Duration
}

func (s shipment) total() time.Duration { return s.spool + s.drain + s.query }

// ship is one time-to-diagnosis operation: a snap in hand goes into
// the spool, the agent drains it to its home shard, and the gate's
// /v1/regressions must show the signature's count one higher. The
// query is the first the gate answers after a shard changed.
func (f *fleet) ship(tr *tracer, s *snap.Snap, sig archive.Signature) (shipment, error) {
	var sh shipment
	t0 := time.Now()
	if err := f.spoolSnap(tr, s); err != nil {
		return sh, err
	}
	sh.spool = time.Since(t0)
	if err := f.drain(tr); err != nil {
		return sh, err
	}
	sh.drain = time.Since(t0) - sh.spool
	body, query, err := f.get(tr, collect.PathRegressions)
	if err != nil {
		return sh, err
	}
	sh.query = query
	f.counts[sig.ID]++
	f.committed = append(f.committed, committed{s, sig})
	var rep triage.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return sh, err
	}
	for _, a := range rep.Assessments {
		if a.Sig == sig.ID {
			if a.Count != f.counts[sig.ID] {
				return sh, fmt.Errorf("/v1/regressions counts %d for %.12s, want %d", a.Count, sig.ID, f.counts[sig.ID])
			}
			return sh, nil
		}
	}
	return sh, fmt.Errorf("/v1/regressions does not list %.12s", sig.ID)
}

// bulk spools the snaps plus dups exact duplicates of the snaps the
// shards were given last (the HEAD precheck answers those), and drains
// them in one pass. It returns the drain's wall time.
func (f *fleet) bulk(tr *tracer, snaps []*snap.Snap, sigs []archive.Signature, dups int) (time.Duration, error) {
	held := f.committed[len(f.committed)-dups:]
	for i, s := range snaps {
		if err := f.spoolSnap(tr, s); err != nil {
			return 0, err
		}
		f.counts[sigs[i].ID]++
		f.committed = append(f.committed, committed{s, sigs[i]})
	}
	for _, c := range held {
		if err := f.spoolSnap(tr, c.snap); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	err := f.drain(tr)
	return time.Since(t0), err
}

// unrolled replays one shipment's work in this goroutine, call by
// call, into a scratch archive: what the agent does to a spooled file
// and what the daemon does to the body it receives. Drain's time
// minus these is what the HTTP hops cost.
func (f *fleet) unrolled(tr *tracer, s *snap.Snap, scratch *archive.Archive) error {
	var file bytes.Buffer // the spooled file, and the identical upload body
	if err := s.SaveCompressed(&file); err != nil {
		return err
	}
	defer tr.op("unrolled")()
	decode := func() (*snap.Snap, error) {
		d := tr.span("snap.LoadAuto")
		loaded, err := snap.LoadAuto(bytes.NewReader(file.Bytes()))
		d()
		if err != nil {
			return nil, err
		}
		d = tr.span("archive.ChecksumSnap")
		_, _, err = archive.ChecksumSnap(loaded)
		d()
		return loaded, err
	}

	// The agent: decode the spooled file, address it, gzip the body.
	loaded, err := decode()
	if err != nil {
		return err
	}
	var body bytes.Buffer
	d := tr.span("snap.SaveCompressed")
	err = loaded.SaveCompressed(&body)
	d()
	if err != nil {
		return err
	}

	// The daemon: decode the body, check the address, sign, ingest.
	if loaded, err = decode(); err != nil {
		return err
	}
	d = tr.span("archive.SignSnap")
	sig := archive.SignSnap(loaded, f.maps)
	d()
	d = tr.span("archive.IngestUnique")
	_, err = scratch.IngestUnique(loaded, sig)
	d()
	return err
}

// counter sums a named counter over the shard daemons' registries.
func (f *fleet) counter(name string) uint64 {
	var n uint64
	for _, s := range f.srvs {
		n += s.Metrics().Counter(name, "").Load()
	}
	return n
}

// diskBytes flushes the shard indexes and sums every file the shards
// keep: blobs, journals, indexes.
func (f *fleet) diskBytes() (total, journals int64, err error) {
	for i, a := range f.archs {
		if err := a.Flush(); err != nil {
			return 0, 0, err
		}
		root := filepath.Join(f.dir, fmt.Sprintf("shard%d", i))
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			if path == a.JournalPath() {
				journals += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return total, journals, nil
}

// verify holds the fleet to a single node: one reference archive
// ingests, directly, every snap the shards were given; the union of
// the shard journals must reduce to its index byte for byte, the
// gate's /v1/regressions must be its /v1/regressions byte for byte,
// and the spool must be empty.
func (f *fleet) verify(jobs int, chk *checks) error {
	ref, err := archive.Open(filepath.Join(f.dir, "reference"))
	if err != nil {
		return err
	}
	defer ref.Close()
	err = parallel(jobs, len(f.committed), func(i int) error {
		_, err := ref.Ingest(f.committed[i].snap, f.committed[i].sig)
		return err
	})
	if err != nil {
		return fmt.Errorf("reference ingest: %w", err)
	}

	var union []archive.JournalRecord
	for _, a := range f.archs {
		jf, err := os.Open(a.JournalPath())
		if err != nil {
			return err
		}
		recs, err := archive.DecodeJournal(jf)
		jf.Close()
		if err != nil {
			return err
		}
		union = append(union, recs...)
	}
	got, err := archive.IndexBytesOf(union)
	if err != nil {
		return err
	}
	want, err := ref.IndexBytes()
	if err != nil {
		return err
	}
	chk.check(bytes.Equal(got, want), "union of shard journals reduces to %d index bytes, the single node to %d, and they differ", len(got), len(want))

	gateBody, _, err := f.get(nil, collect.PathRegressions)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	collect.NewServer(ref, collect.ServerOptions{Maps: f.maps}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, collect.PathRegressions, nil))
	chk.check(bytes.Equal(gateBody, rec.Body.Bytes()), "gate /v1/regressions differs from the single node's")

	left, err := filepath.Glob(filepath.Join(f.spool, "*.snap.json*"))
	if err != nil {
		return err
	}
	chk.check(len(left) == 0, "%d snap(s) left in the spool", len(left))
	return nil
}

// shuffledRoutes is the steady phase's operation list: every route
// reps times, in a seeded order that stays the same in every round.
func (f *fleet) shuffledRoutes(rng *rand.Rand, reps int) []string {
	var ops []string
	for i := 0; i < reps; i++ {
		ops = append(ops, f.routes...)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
