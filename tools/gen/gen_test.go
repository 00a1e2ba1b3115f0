package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"traceback/internal/scenario"
)

// digest is what the freshness comparison reads of a file. A gzip
// stream — a snap file, or the payload of a fuzz seed — stands for
// what it inflates to, because the deflate bytes are the Go release's
// to choose; a stream torn on purpose stands for being torn;
// everything else stands for itself.
func digest(b []byte) string {
	if s, ok := strings.CutPrefix(string(b), seedHead); ok {
		if payload, err := strconv.Unquote(strings.TrimSuffix(s, seedTail)); err == nil {
			b = []byte(payload)
		}
	}
	h := sha256.New()
	if zr, err := gzip.NewReader(bytes.NewReader(b)); err != nil {
		h.Write(b)
	} else if _, err := io.Copy(h, zr); err != nil {
		return "torn gzip"
	}
	return string(h.Sum(nil))
}

// stale compares the generated tree under fresh with the same paths
// under committed and returns one line per file that differs, is
// missing, or sits in a generated directory without being generated.
func stale(committed, fresh string) ([]string, error) {
	var problems []string
	report := func(rel, what string) {
		problems = append(problems, fmt.Sprintf("%s %s; run `make gen` and commit the result", rel, what))
	}
	dirs := map[string]bool{}
	err := filepath.WalkDir(fresh, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(fresh, path)
		if err != nil {
			return err
		}
		dirs[filepath.Dir(rel)] = true
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(committed, rel))
		switch {
		case os.IsNotExist(err):
			report(rel, "is generated but not committed")
		case err != nil:
			return err
		case !bytes.Equal(got, want) && digest(got) != digest(want):
			report(rel, "differs from what the generators write")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir := range dirs {
		entries, err := os.ReadDir(filepath.Join(committed, dir))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		for _, e := range entries {
			if _, err := os.Stat(filepath.Join(fresh, dir, e.Name())); e.Type().IsRegular() && err != nil {
				report(filepath.Join(dir, e.Name()), "is committed but no longer generated")
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// TestCommittedTreesAreFresh regenerates every tree into a temporary
// root and holds the committed ones to them — the one place "is what
// is committed what the sources produce" is asked, for snaps/,
// snaps/regressions/, the seeded-broken corpus, the fuzz seeds and
// the paper's tables alike. The cases after it perturb one generated
// file per tree and require the comparison to name that file and the
// fix, so a comparison that has gone blind fails too. -short skips the
// tables, the one tree that runs the workloads at full size.
func TestCommittedTreesAreFresh(t *testing.T) {
	repo, err := scenario.Root()
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	for _, tr := range trees {
		if tr.name == "tables" && testing.Short() {
			continue
		}
		if err := tr.gen(fresh); err != nil {
			t.Fatalf("generating %s: %v", tr.name, err)
		}
	}
	problems, err := stale(repo, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if t.Failed() {
		return
	}

	// regzip rewrites a gzip stream stored rather than deflated, with
	// extra appended to what it inflates to.
	regzip := func(extra string) func([]byte) []byte {
		return func(b []byte) []byte {
			zr, err := gzip.NewReader(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&out, gzip.NoCompression)
			if _, err := io.Copy(zw, io.MultiReader(zr, strings.NewReader(extra))); err != nil {
				t.Fatal(err)
			}
			zw.Close()
			return out.Bytes()
		}
	}
	for _, c := range []struct {
		tree, file string
		perturb    func([]byte) []byte // nil result: the file is removed
		want       string              // "" = still fresh
	}{
		{"snaps", "snaps/quickstart-app-1.snap.json.gz", regzip(""), ""},
		{"snaps", "snaps/quickstart-app-1.snap.json.gz", regzip("\n"), "differs"},
		{"regressions", "snaps/regressions/manifest.json", func(b []byte) []byte { return append(b, '\n') }, "differs"},
		{"broken", "internal/verify/testdata/corpus/missing-probe.tbm", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "differs"},
		{"fuzz", "internal/snap/testdata/fuzz/FuzzSnapReader/valid-gzip", func([]byte) []byte { return nil }, "no longer generated"},
		{"fuzz", "internal/trace/testdata/fuzz/FuzzTraceRecordDecode/brand-new", func([]byte) []byte { return []byte("x") }, "not committed"},
		{"tables", tablesFile, func(b []byte) []byte {
			// One digit of ammp's Normal cycle count.
			i := bytes.Index(b, []byte("\nammp "))
			if i < 0 {
				t.Fatalf("%s has no ammp row", tablesFile)
			}
			i += bytes.IndexAny(b[i:], "0123456789")
			b[i] = '0' + (b[i]-'0'+1)%10
			return b
		}, "differs"},
	} {
		if c.tree == "tables" && testing.Short() {
			continue
		}
		path := filepath.Join(fresh, filepath.FromSlash(c.file))
		orig, readErr := os.ReadFile(path)
		if b := c.perturb(append([]byte(nil), orig...)); b != nil {
			err = os.WriteFile(path, b, 0o644)
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		problems, err := stale(repo, fresh)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case c.want == "" && len(problems) != 0:
			t.Errorf("%s: %s recompressed, same content: reported stale: %v", c.tree, c.file, problems)
		case c.want == "":
		case len(problems) != 1 || !strings.HasPrefix(problems[0], filepath.FromSlash(c.file)+" ") ||
			!strings.Contains(problems[0], c.want) || !strings.Contains(problems[0], "make gen"):
			t.Errorf("%s: %s perturbed: got %q, want one line naming the file, %q and the `make gen` fix", c.tree, c.file, problems, c.want)
		}
		if readErr == nil {
			err = os.WriteFile(path, orig, 0o644)
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnknownTreeIsUsage: a tree name gen does not know exits 2 with
// the usage text and generates nothing.
func TestUnknownTreeIsUsage(t *testing.T) {
	out := t.TempDir()
	var stderr bytes.Buffer
	if code := run([]string{"-out", out, "snaps", "nonesuch"}, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	for _, want := range []string{`unknown tree "nonesuch"`, "usage: gen", "regressions"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	if entries, _ := os.ReadDir(out); len(entries) != 0 {
		t.Errorf("a refused command line still wrote %d entr(ies)", len(entries))
	}
}
