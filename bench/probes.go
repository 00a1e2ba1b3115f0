package main

import (
	"io"
	"os"
	"runtime"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/replay"
	"traceback/internal/scenario"
	"traceback/internal/shard"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/triage"
	"traceback/internal/workload"
)

// Layer probes: calls the traced run makes into single layers, beside
// the operations, so that a layer the operations only reach through
// another (the merge inside a gate query, the miner inside a
// reconstruction) gets a time of its own. They run only with a
// tracer, and never inside a timed section of the operations.

// probeDiagnose times the layers under a diagnosis on this round's
// traces: the miner alone over each buffer's written words, the
// cross-process stitcher, and the batch on one worker for the
// speed-up the worker pool buys.
func (r *run) probeDiagnose(tr *tracer, rec recorder, traces []*recon.ProcessTrace, sources []recon.Source, batchWall time.Duration) {
	defer tr.op("probe.diagnose")()
	records := 0
	var mining time.Duration
	for _, pt := range traces {
		for i := range pt.Snap.Buffers {
			b := &pt.Snap.Buffers[i]
			words := b.Words()
			if b.LastKnown && int(b.LastPtr) < len(words) {
				words = words[:b.LastPtr+1]
			}
			done := tr.span("trace.MineBackward")
			t0 := time.Now()
			recs := trace.MineBackward(words)
			mining += time.Since(t0)
			done()
			records += len(recs)
		}
	}
	if mining > 0 {
		rec.round("trace.mine_mrecords_per_s", float64(records)/1e6/mining.Seconds())
	}

	done := tr.span("recon.Stitch")
	recon.Stitch(traces)
	done()

	// Decoding alone: what LoadAuto allocates, and how fast it gets
	// through the JSON under the gzip. The pass's JSON size is counted
	// once; the files do not change between rounds.
	files := r.pop.files[:r.diagFiles()]
	if r.rawBytes == 0 && len(traces) == len(files) {
		cw := &countWriter{w: io.Discard}
		for _, pt := range traces {
			r.chk.op(pt.Snap.Save(cw), "snap.Save")
		}
		r.rawBytes = cw.n
	}
	var before, after runtime.MemStats
	var decoding time.Duration
	runtime.ReadMemStats(&before)
	for _, path := range files {
		f, err := os.Open(path)
		if !r.chk.op(err, "open snap file") {
			continue
		}
		t0 := time.Now()
		_, err = snap.LoadAuto(f)
		decoding += time.Since(t0)
		f.Close()
		r.chk.op(err, "decode "+path)
	}
	runtime.ReadMemStats(&after)
	if decoding > 0 {
		rec.round("snap.decode_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(files)))
		rec.round("snap.decode_mb_per_s", float64(r.rawBytes)/1e6/decoding.Seconds())
	}

	if wall1, ok := r.runBatch(tr, r.batch1, sources); ok && batchWall > 0 {
		rec.round("recon.batch_speedup", wall1.Seconds()/batchWall.Seconds())
	}
}

// probeQuery times what a gate query does after its fan-out, on the
// shards' own bucket lists: the merge and the classifier.
func (r *run) probeQuery(tr *tracer, rec recorder) {
	defer tr.op("probe.query")()
	f := r.fleet
	lists := make([][]archive.Bucket, len(f.archs))
	for i, a := range f.archs {
		lists[i] = a.Buckets()
	}
	done := tr.span("shard.MergeBuckets")
	merged := shard.MergeBuckets(lists...)
	done()
	done = tr.span("triage.Classify")
	triage.Classify(merged, shard.NewestTime(merged), triage.Defaults())
	done()

	const places = 1000
	sum, _, err := archive.ChecksumSnap(r.pop.snaps[0])
	if r.chk.op(err, "checksum") {
		t0 := time.Now()
		for i := 0; i < places; i++ {
			if _, err = f.ring.Place(sum); err != nil {
				break
			}
		}
		if r.chk.op(err, "ring placement") {
			rec.round("shard.place_ns", float64(time.Since(t0).Nanoseconds())/places)
		}
	}

	body, _, err := f.get(tr, collect.PathBuckets)
	r.queries++
	if r.chk.op(err, "query "+collect.PathBuckets) {
		rec.round("gate.buckets_resp_bytes", float64(len(body)))
	}
}

// probeOnce runs after the measured rounds of a traced run: layers
// whose cost is paid once (a cold clustering, an index rebuild) or
// that belong to no round (record and replay, the managed VM).
func (r *run) probeOnce(tr *tracer, rec recorder) {
	defer tr.op("probe.once")()
	an := triage.New(r.fleet.archs[0], r.fleet.maps, triage.Config{}, nil)
	for _, name := range []string{"triage.Analyzer.Clusters.cold", "triage.Analyzer.Clusters.warm"} {
		done := tr.span(name)
		_, err := an.Clusters()
		done()
		r.chk.op(err, name)
	}

	done := tr.span("archive.RebuildIndexBytes")
	_, err := r.fleet.archs[0].RebuildIndexBytes()
	done()
	r.chk.op(err, "index rebuild")

	// Recording must not cost the recorded run a cycle: the snaps of a
	// recorded scenario carry the same clock as the plain ones.
	builts, err := scenario.All()
	if !r.chk.op(err, "scenarios") {
		return
	}
	var delta float64
	for i, b := range scenario.Builders {
		done := tr.span("replay.Record")
		log, res, err := replay.Record(b.Name, false, false)
		done()
		if !r.chk.op(err, "record "+b.Name) {
			continue
		}
		for j, s := range res.Snaps {
			if j < len(builts[i].Snaps) {
				delta += absDiff(s.Time, builts[i].Snaps[j].Time)
			}
		}
		done = tr.span("replay.Verify")
		v, err := replay.Verify(log, res.Snaps)
		done()
		if r.chk.op(err, "replay "+b.Name) {
			r.chk.check(v.Identical, "replay of %s is not byte-identical", b.Name)
		}
	}
	rec.round("replay.record_cycle_delta", delta)

	if r.pop.managed > 0 {
		done := tr.span("workload.RunJbb")
		t0 := time.Now()
		_, err := workload.RunJbb(workload.JbbSystems[0], 1, r.pop.jbbTxns)
		wall := time.Since(t0)
		done()
		if r.chk.op(err, "jbb") {
			// RunJbb runs the warehouse twice, plain and instrumented.
			rec.round("mvm.txn_per_host_s", float64(2*r.pop.jbbTxns)/wall.Seconds())
		}
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
