// storecheck is the warehouse CI gate (`make store-check`): it
// ingests the committed example snaps under snaps/, then re-runs the
// scenarios and ingests the freshly generated snaps into the same
// store, and asserts the warehouse's core guarantees end to end:
//
//   - the committed snaps all store (no dups on first contact) under
//     strong (reconstructed) signatures;
//   - the fresh re-run deduplicates completely onto the committed
//     blobs (the fleet is deterministic — nothing new is stored);
//   - every bucket's occurrence count is exactly twice its blob
//     count, one per ingest round;
//   - the index rebuilt from the journal alone is byte-identical to
//     the live index, and to the flushed index.json.
//
// Any violation exits nonzero with a diagnosis.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"traceback/internal/archive"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "storecheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	snapsDir := flag.String("snaps", "snaps", "committed snap directory (mapfiles in <snaps>/maps)")
	storeDir := flag.String("store", "", "warehouse directory (default: a temp dir, removed on success)")
	flag.Parse()

	committed, err := snap.ExpandPaths([]string{*snapsDir}, nil)
	if err != nil {
		die("%v (run `go run ./tools/gensnaps` to regenerate the committed fleet)", err)
	}

	if *storeDir == "" {
		tmp, err := os.MkdirTemp("", "storecheck-*")
		if err != nil {
			die("%v", err)
		}
		defer os.RemoveAll(tmp)
		*storeDir = filepath.Join(tmp, "wh")
	}

	loader, err := recon.NewDirLoader(filepath.Join(*snapsDir, "maps"))
	if err != nil {
		die("%v", err)
	}
	pipe := recon.NewPipeline(recon.NewMapCache(loader.Load), 0)
	arch, err := archive.OpenWith(*storeDir, archive.Options{Telemetry: pipe.Registry()})
	if err != nil {
		die("%v", err)
	}

	// Round 1: the committed fleet. Everything stores, nothing dups,
	// every signature is strong.
	stored, dups := ingest(pipe, arch, committed)
	if dups != 0 {
		die("committed fleet self-duplicates: %d dup(s) among %d snaps", dups, len(committed))
	}
	fmt.Printf("committed: %d snap(s) stored in %d bucket(s)\n", stored, len(arch.Buckets()))

	// Round 2: regenerate the fleet from source and ingest the fresh
	// snaps. Determinism means every one dedupes onto a committed blob.
	freshDir, err := os.MkdirTemp("", "storecheck-fresh-*")
	if err != nil {
		die("%v", err)
	}
	defer os.RemoveAll(freshDir)
	builts, err := scenario.All()
	if err != nil {
		die("regenerating fleet: %v", err)
	}
	var fresh []string
	for _, b := range builts {
		paths, err := b.Write(freshDir)
		if err != nil {
			die("%v", err)
		}
		fresh = append(fresh, paths...)
	}
	if len(fresh) != len(committed) {
		die("fleet drift: %d committed snap(s) but scenarios now produce %d — rerun tools/gensnaps and commit",
			len(committed), len(fresh))
	}
	freshStored, freshDups := ingest(pipe, arch, fresh)
	if freshStored != 0 {
		die("fresh re-run stored %d new blob(s); committed snaps/ is stale — rerun tools/gensnaps and commit", freshStored)
	}
	fmt.Printf("fresh rerun: %d snap(s), all deduplicated onto committed blobs\n", freshDups)

	// Bucket accounting: two ingest rounds, so each bucket counts twice
	// its blobs.
	for _, b := range arch.Buckets() {
		if b.Weak {
			die("bucket %s (%s) is weak: committed mapfiles failed to reconstruct", b.Sig, b.Title)
		}
		if b.Count != 2*uint64(len(b.Snaps)) {
			die("bucket %s counts %d occurrences over %d blob(s), want exactly 2x", b.Sig, b.Count, len(b.Snaps))
		}
	}

	// Durability: journal reduction must reproduce the live index byte
	// for byte, and Flush must have persisted exactly those bytes.
	live, err := arch.IndexBytes()
	if err != nil {
		die("%v", err)
	}
	rebuilt, err := arch.RebuildIndexBytes()
	if err != nil {
		die("%v", err)
	}
	if !bytes.Equal(live, rebuilt) {
		die("index rebuilt from journal differs from live index")
	}
	if err := arch.Flush(); err != nil {
		die("%v", err)
	}
	onDisk, err := os.ReadFile(filepath.Join(*storeDir, "index.json"))
	if err != nil {
		die("%v", err)
	}
	if !bytes.Equal(onDisk, live) {
		die("flushed index.json differs from live index")
	}
	if err := arch.Close(); err != nil {
		die("closing store: %v", err)
	}

	fmt.Printf("store-check ok: %d bucket(s), %d blob(s), %d bytes; journal rebuild byte-identical\n",
		len(arch.Buckets()), arch.NumBlobs(), arch.StoredBytes())
}

// ingest runs the paths through the reconstruction pipeline and
// archives each result, dying on any per-snap failure.
func ingest(pipe *recon.Pipeline, arch *archive.Archive, paths []string) (stored, dups int) {
	sources := make([]recon.Source, len(paths))
	for i, p := range paths {
		sources[i] = recon.FileSource(p)
	}
	for i, res := range pipe.Run(sources) {
		if res.Err != nil {
			die("%s: %v", paths[i], res.Err)
		}
		r, err := arch.Ingest(res.Trace.Snap, archive.FromTrace(res.Trace))
		if err != nil {
			die("%s: %v", paths[i], err)
		}
		if r.Dup {
			dups++
		} else {
			stored++
		}
	}
	return stored, dups
}
