// gen regenerates the repository's committed generated trees. Every
// one is a pure function of the sources (the VM is deterministic), so
// what it writes is what is committed; gen_test.go holds the two to
// each other on every `go test`.
//
//	go run ./tools/gen                    # every tree, in place (make gen)
//	go run ./tools/gen snaps regressions  # only the named trees
//	go run ./tools/gen -out d fuzz        # under d/ instead of the repository root
//
// Run it after changing the examples, the instrumentation, the fault
// planner, the verifier's seed mutations or a file format, and commit
// the result.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"traceback/internal/fault"
	"traceback/internal/module"
)

// trees are the generated trees; each writes below the root it is
// given, at the path it is committed under.
var trees = []struct {
	name, what string
	gen        func(root string) error
}{
	{"snaps", "snaps/: the example scenarios' snap fleet and its mapfiles", genSnaps},
	{"regressions", "snaps/regressions/: the fault-campaign regression corpus", genRegressions},
	{"broken", "internal/verify/testdata/corpus/: seeded-broken modules and fleets, with their fuzz seeds", genBroken},
	{"fuzz", "internal/{trace,snap}/testdata/fuzz/: decoder fuzz seeds", genFuzz},
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run returns the exit status: 0 done, 1 a tree failed to generate,
// 2 usage.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", ".", "root to write under; the repository root regenerates in place")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: gen [-out root] [tree...]   (no tree = all)")
		for _, t := range trees {
			fmt.Fprintf(stderr, "  %-12s %s\n", t.name, t.what)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	picked := map[string]bool{}
	for _, t := range trees {
		picked[t.name] = fs.NArg() == 0
	}
	for _, name := range fs.Args() {
		if _, ok := picked[name]; !ok {
			fmt.Fprintf(stderr, "gen: unknown tree %q\n", name)
			fs.Usage()
			return 2
		}
		picked[name] = true
	}
	for _, t := range trees {
		if !picked[t.name] {
			continue
		}
		if err := t.gen(*out); err != nil {
			fmt.Fprintf(stderr, "gen: %s: %v\n", t.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "gen: wrote %s\n", t.name)
	}
	return 0
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func writeMap(path string, mf *module.MapFile) error {
	var buf bytes.Buffer
	if err := mf.Save(&buf); err != nil {
		return err
	}
	return writeFile(path, buf.Bytes())
}

// writeManifest writes dir/manifest.json, the name every generated
// corpus keeps its case list under.
func writeManifest(dir, indent string, manifest any) error {
	raw, err := json.MarshalIndent(manifest, "", indent)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, fault.ManifestName), append(raw, '\n'))
}

func writeModule(path string, m *module.Module) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), writeFile(path, buf.Bytes())
}

// A `go test` fuzz corpus entry holding one []byte is seedHead, the
// quoted bytes, seedTail.
const seedHead, seedTail = "go test fuzz v1\n[]byte(", ")\n"

func writeSeed(dir, name string, data []byte) error {
	return writeFile(filepath.Join(dir, name), []byte(seedHead+strconv.Quote(string(data))+seedTail))
}
