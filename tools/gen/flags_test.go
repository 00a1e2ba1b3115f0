package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag.FlagSet methods that register a flag,
// each with the index of its flag-name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
}

// deploymentFlags are the flags ("<cli> -<name>") that neither the
// docs nor a test pass, each with the reason it stays.
var deploymentFlags = map[string]string{
	"tbagent -poll":             "a long-running agent's spool scan interval is the deployment's to choose",
	"tbagent -timeout":          "the per-request deadline depends on the network between agent and daemon",
	"tbagent -backoff-base":     "the retry ramp is sized to the fleet an agent shares a daemon with",
	"tbagent -backoff-max":      "the retry ramp is sized to the fleet an agent shares a daemon with",
	"tbcollectd -drain-timeout": "how long a stopping daemon waits for in-flight uploads is the supervisor's to choose",
	"tbstore -max-age":          "the warehouse's retention is the operator's to choose",
	"tbstore -max-bytes":        "the warehouse's disk budget is the operator's to choose",
}

// TestFlagsHaveUsers keeps the command lines to what someone uses.
// Every flag registered by an fs.X or fs.XVar call in cmd/*/main.go
// must appear as -name in the Makefile, README.md, DESIGN.md,
// EXPERIMENTS.md or the verify skill (not preceded by a word
// character or '-', not followed by one), or as a "-name" or
// "-name=…" literal in some _test.go. A flag no one documents or
// tests is an input no one defends: delete it, or give it a reason on
// deploymentFlags.
func TestFlagsHaveUsers(t *testing.T) {
	const repo = "../.."
	var docs, tests strings.Builder
	for _, rel := range []string{"Makefile", "README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		b, err := os.ReadFile(filepath.Join(repo, rel))
		if err != nil {
			t.Fatal(err)
		}
		docs.Write(b)
		docs.WriteByte('\n')
	}
	err := filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != repo && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			tests.Write(b)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := func(name string) bool {
		q := regexp.QuoteMeta(name)
		return regexp.MustCompile(`(?:^|[^\w-])-`+q+`(?:[^\w-]|$)`).MatchString(docs.String()) ||
			regexp.MustCompile(`"-`+q+`(?:"|=)`).MatchString(tests.String())
	}

	mains, err := filepath.Glob(filepath.Join(repo, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go (%v)", err)
	}
	var problems []string
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range mains {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		cli := filepath.Base(filepath.Dir(p))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, definer := flagDefiners[sel.Sel.Name]
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" || !definer {
				return true
			}
			at := "cmd/" + cli + "/main.go:" + strconv.Itoa(fset.Position(call.Pos()).Line) + ": "
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				problems = append(problems, at+"flag name is not a string literal")
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			key := cli + " -" + name
			declared[key] = true
			_, allowed := deploymentFlags[key]
			switch u := used(name); {
			case allowed && u:
				problems = append(problems, key+" is documented or tested now; take it off deploymentFlags")
			case !allowed && !u:
				problems = append(problems, at+key+" appears in no doc and no test; delete it, document it, or test it")
			}
			return true
		})
	}
	for key := range deploymentFlags {
		if !declared[key] {
			problems = append(problems, key+" is on deploymentFlags but registered nowhere")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
