package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are called by the standard library through an
// interface, never by name in this repository.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "RoundTrip": true, "Read": true,
}

// uncalledExports are the exported functions and methods kept although
// no production code calls them, each with the reason it stays.
var uncalledExports = map[string]string{
	"internal/core.NewCache":                "dynamic-code tests drive it end to end: the only reproduction of paper §3.4",
	"internal/core.Cache.Instrument":        "dynamic-code tests drive it end to end: the only reproduction of paper §3.4",
	"internal/vm.Process.SetModuleResolver": "dynamic-code tests drive it end to end: the only reproduction of paper §3.4",
	"internal/mvm.MethodBuilder.Catch":      "managed-code test programs in several packages build handlers with it",
	"internal/vm.RunProcess":                "the run-to-exit helper tests in several packages share",
	"internal/vm.Process.OutString":         "the stdout reader tests in several packages share",
	"internal/recon.SnapSource":             "the in-memory snap source tests in several packages share",
	"internal/recon.RenderThread":           "the one-thread renderer tests in several packages share",
	"internal/minic.MustCompile":            "the compile-or-panic helper tests in several packages share",
	"internal/archive.DecodeIndex":          "FuzzArchiveIndex's fixed-point check decodes index.json with it",
	"internal/collect.Server.Draining":      "the drain tests read the daemon's state with it",
	"internal/archive.Archive.Root":         "the collect tests read the journal file under it",
}

// TestExportsHaveProductionCallers keeps the production code to what
// production runs. Every exported function or method declared in a
// non-test file outside bench/ and internal/loopback must be referenced
// by some non-test file, bench/ included, outside its own declaration.
// A function matches by its bare name inside its package and by
// pkg.Name where a file imports it; a method matches by .Name anywhere
// except on an imported package name, where pkg.Name is a function.
// A mechanism that only tests drive fails here: wire it or delete it.
func TestExportsHaveProductionCallers(t *testing.T) {
	const repo = "../.."
	type decl struct {
		key  string // match key: "<import path>.<Name>", or ".<Name>" for a method
		pos  string
		name string // what the failure and the allowlist call it
	}
	var decls []decl
	called := map[string]bool{} // match keys referenced outside their own declaration
	fset := token.NewFileSet()
	err := filepath.WalkDir(repo, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repo, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "internal/loopback") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(rel)
		pkg := path.Join("traceback", dir)
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		for _, dl := range f.Decls {
			fd, _ := dl.(*ast.FuncDecl)
			self := ""
			if fd != nil {
				self = pkg + "." + fd.Name.Name
				name := dir + "." + fd.Name.Name
				if fd.Recv != nil {
					self = "." + fd.Name.Name
					name = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				if fd.Name.IsExported() && !strings.HasPrefix(rel, "bench/") && !(fd.Recv != nil && interfaceMethods[fd.Name.Name]) {
					decls = append(decls, decl{self, rel + ":" + strconv.Itoa(fset.Position(fd.Pos()).Line), name})
				}
			}
			refer := func(key string) {
				if key != self {
					called[key] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						refer(imports[x.Name] + "." + n.Sel.Name)
						return false
					}
					refer("." + n.Sel.Name)
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					refer(pkg + "." + n.Name)
				}
				return true
			}
			ast.Inspect(dl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		_, allowed := uncalledExports[d.name]
		switch {
		case allowed && called[d.key]:
			problems = append(problems, d.pos+": "+d.name+" has a caller now; take it off uncalledExports")
		case !allowed && !called[d.key]:
			problems = append(problems, d.pos+": "+d.name+" is exported, but no non-test code calls it; wire it into production code or delete it")
		}
	}
	for name := range uncalledExports {
		if !declared[name] {
			problems = append(problems, name+" is on uncalledExports but declared nowhere")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
