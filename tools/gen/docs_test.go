package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// A reference may wrap onto a comment line ("DESIGN.md\n// §8")
	// and may list more sections ("DESIGN.md §10, §14").
	designRef  = regexp.MustCompile(`DESIGN\.md(?:\s|#|//)*§\d+(?:,\s*§\d+)*`)
	sectionNum = regexp.MustCompile(`§(\d+)`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	testCite   = regexp.MustCompile(`\b(?:([a-z][a-z0-9]*)\.)?((?:Test|Fuzz)[A-Z0-9_]\w*)`)
)

// designMaxLines bounds DESIGN.md: a description of the system that
// exists, not a history of it.
const designMaxLines = 700

// TestDocReferencesResolve keeps the docs' pointers true. Every
// "DESIGN.md §N" in the Go sources outside bench/, README.md,
// EXPERIMENTS.md, the Makefile and the verify skill must name a
// "## N." heading of DESIGN.md; every Test…/Fuzz… name DESIGN.md or
// README.md cites must be a function of some _test.go file, and one
// cited as pkg.TestX must live in a directory named pkg. DESIGN.md
// holds at most designMaxLines lines.
func TestDocReferencesResolve(t *testing.T) {
	const repo = "../.."
	read := func(rel string) string {
		b, err := os.ReadFile(filepath.Join(repo, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	design := read("DESIGN.md")
	if n := strings.Count(design, "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md is %d lines, more than %d", n, designMaxLines)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	citing := []string{"README.md", "EXPERIMENTS.md", "Makefile", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	defined := map[string][]string{} // test function -> directories defining it
	err := filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repo, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		if strings.HasSuffix(rel, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(read(rel), -1) {
				defined[m[1]] = append(defined[m[1]], filepath.Base(filepath.Dir(path)))
			}
		}
		if !strings.HasPrefix(rel, "bench"+string(filepath.Separator)) {
			citing = append(citing, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, rel := range citing {
		text := read(rel)
		for _, loc := range designRef.FindAllStringIndex(text, -1) {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			for _, m := range sectionNum.FindAllStringSubmatch(text[loc[0]:loc[1]], -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d: DESIGN.md has no section %s", rel, line, m[1])
				}
			}
		}
	}
	for _, rel := range []string{"DESIGN.md", "README.md"} {
		text := read(rel)
		for _, loc := range testCite.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			name := text[loc[4]:loc[5]]
			dirs := defined[name]
			if len(dirs) == 0 {
				t.Errorf("%s:%d: no _test.go defines %s", rel, line, name)
				continue
			}
			if loc[2] < 0 {
				continue
			}
			pkg := text[loc[2]:loc[3]]
			found := false
			for _, d := range dirs {
				found = found || d == pkg
			}
			if !found {
				t.Errorf("%s:%d: %s.%s: %s is defined under %v, not in a directory named %s", rel, line, pkg, name, name, dirs, pkg)
			}
		}
	}
}
