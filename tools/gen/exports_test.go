package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stdlibCalled are the methods fmt and encoding/json call by
// reflection, never through a use the type checker sees.
var stdlibCalled = map[string]bool{"String": true, "MarshalJSON": true, "UnmarshalJSON": true}

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
	"internal/collect.Server.Draining":      "the drain tests read the daemon's state with it",
	"internal/archive.Archive.Root":         "the collect tests read the journal file under it",
	"internal/core.Cache.Len":               "dynamic-code tests drive it end to end: the only reproduction of paper §3.4",
	"internal/mvm.VM.Join":                  "the run-a-managed-thread-to-its-result helper tests in several packages share",
	"internal/mvm.ManagedRuntime.TakeSnap":  "the on-demand managed snap tests in several packages take",
	"internal/service.Service.Metrics":      "the metric-hygiene test enumerates the service's registry through it",
	"internal/tbrt.Runtime.Metrics":         "the tbrt, service and tbinstr tests read the runtime's counters through it",
}

// unsetFields are the exported fields of …Config and …Options structs
// that no production code sets, each with the reason it stays.
var unsetFields = map[string]string{
	"internal/tbrt.Config.TLSSlot":         "paper §2.5's TLS-slot fixup at load; rebase_test drives it",
	"internal/tbrt.Config.UseLogicalClock": "paper §3.5's logical clock for platforms without a fine clock; figure3_test drives it",
	"internal/collect.AgentOptions.Sleep":  "the test seam that runs the agent's backoff without waiting",
	"internal/shard/gate.Options.Client":   "the test seam that points the gate at a client of the test's choosing",
	"internal/verify.Options.MaxPaths":     "the fuzz seam that keeps a fuzzed DAG's path enumeration small",
}

// TestExportsHaveProductionCallers keeps the production code to what
// production runs. Every exported function or method declared in a
// non-test file outside bench/ and internal/loopback must be used by
// some non-test file outside internal/loopback, bench/ included,
// outside its own declaration. Uses are resolved by the type checker:
// a method is used when its own object is, or when it implements an
// interface method that is. A mechanism that only tests drive fails
// here: wire it or delete it.
//
// The same holds for settings: every exported field of an exported
// …Config or …Options struct outside bench/ must be set by some
// non-test file — as a key of a composite literal, or on the left of
// an assignment outside the struct's own package (inside it, such an
// assignment fills in a default). A setting production never changes
// is a constant: make it one, or give it a reason on unsetFields.
func TestExportsHaveProductionCallers(t *testing.T) {
	r, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		obj       types.Object
		pos, name string
		body      ast.Node // the declaration, inside which uses do not count
	}
	var decls, fields []decl
	used := map[types.Object]bool{}
	var ifaceUsed []*types.Func
	set := map[types.Object]bool{}
	for ip, files := range r.files {
		if ip == "traceback/internal/loopback" {
			continue
		}
		dir := strings.TrimPrefix(ip, "traceback/")
		bench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if bench || !d.Name.IsExported() || (d.Recv != nil && stdlibCalled[d.Name.Name]) {
						continue
					}
					name := dir + "." + d.Name.Name
					if d.Recv != nil {
						name = dir + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls = append(decls, decl{r.info.Defs[d.Name], r.pos(d.Pos()), name, d})
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						ts, ok := sp.(*ast.TypeSpec)
						if bench || !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
							continue
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								for _, n := range fl.Names {
									if n.IsExported() {
										fields = append(fields, decl{r.info.Defs[n], r.pos(n.Pos()), dir + "." + ts.Name.Name + "." + n.Name, nil})
									}
								}
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set[r.info.Uses[id]] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if v := r.info.Uses[sel.Sel]; v != nil && v.Pkg() != r.pkgs[ip] {
								set[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	declOf := map[types.Object]ast.Node{}
	for _, d := range decls {
		declOf[d.obj] = d.body
	}
	for id, obj := range r.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || r.inLoopback(id.Pos()) {
			continue
		}
		if body := declOf[fn.Origin()]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceUsed = append(ifaceUsed, obj.(*types.Func))
		}
		used[fn.Origin()] = true
	}
	// implements reports whether method m satisfies a used interface
	// method of its name.
	implements := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		ptr := recv.Type()
		if _, ok := ptr.(*types.Pointer); !ok {
			ptr = types.NewPointer(ptr)
		}
		for _, im := range ifaceUsed {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() && types.Implements(ptr, iface) {
				return true
			}
		}
		return false
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		called := used[d.obj] || implements(d.obj.(*types.Func))
		_, allowed := uncalledExports[d.name]
		switch {
		case allowed && called:
			problems = append(problems, d.pos+": "+d.name+" has a caller now; take it off uncalledExports")
		case !allowed && !called:
			problems = append(problems, d.pos+": "+d.name+" is exported, but no non-test code calls it; wire it into production code or delete it")
		}
	}
	for name := range uncalledExports {
		if !declared[name] {
			problems = append(problems, name+" is on uncalledExports but declared nowhere")
		}
	}
	declared = map[string]bool{}
	for _, fl := range fields {
		declared[fl.name] = true
		_, allowed := unsetFields[fl.name]
		switch {
		case allowed && set[fl.obj]:
			problems = append(problems, fl.pos+": "+fl.name+" is set by production code now; take it off unsetFields")
		case !allowed && !set[fl.obj]:
			problems = append(problems, fl.pos+": "+fl.name+" is set by no non-test code; make it a constant, delete it, or wire it")
		}
	}
	for name := range unsetFields {
		if !declared[name] {
			problems = append(problems, name+" is on unsetFields but declared nowhere")
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

// repo is the repository's non-test code, parsed and type-checked from
// source in one pass, this module's imports through the same cache, so
// a function, method or field is one object everywhere.
type repo struct {
	root  string
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

// pos renders p as "<path from the repository root>:<line>".
func (r *repo) pos(p token.Pos) string {
	ps := r.fset.Position(p)
	rel, _ := filepath.Rel(r.root, ps.Filename)
	return filepath.ToSlash(rel) + ":" + strconv.Itoa(ps.Line)
}

// inLoopback reports whether p lies in internal/loopback, the test
// harness whose code is no production caller.
func (r *repo) inLoopback(p token.Pos) bool {
	return strings.HasPrefix(r.pos(p), "internal/loopback/")
}

var loadRepo = sync.OnceValues(func() (*repo, error) {
	r := &repo{
		root:  "../..",
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(r.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != r.root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(r.root, filepath.Dir(p))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(r.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("traceback", filepath.ToSlash(rel))
		r.files[ip] = append(r.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.Default()
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg := r.pkgs[ip]; pkg != nil {
			return pkg, nil
		}
		if r.files[ip] == nil {
			return std.Import(ip)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(ip, r.fset, r.files[ip], r.info)
		r.pkgs[ip] = pkg
		return pkg, err
	}
	for ip := range r.files {
		if _, err := imp(ip); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", ip, err)
		}
	}
	return r, nil
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// storedTypes are the types a snap, a mapfile or the warehouse journal
// stores on disk.
var storedTypes = []string{
	"internal/snap.Snap", "internal/snap.ModuleInfo", "internal/snap.BufferDump", "internal/snap.NondetLog", "internal/trace.NondetRecord",
	"internal/module.MapFile", "internal/module.MapDAG", "internal/module.MapBlock", "internal/module.LineSpan", "internal/module.Global",
	"internal/archive.JournalRecord",
}

// unreadFields are the stored fields no production code reads, each
// with the reason it stays.
var unreadFields = map[string]string{}

// TestStoredFieldsHaveReaders keeps what is stored to what something
// reads. Every field of a stored type must be read in some non-test
// file, bench/ included: a selector x.F, resolved by the type checker,
// that is not the target of an assignment or an increment. JSON
// encoding and decoding do not count. A field nothing reads is bytes
// every snap, mapfile or journal line carries for no one: delete it,
// or give it a reason on unreadFields.
func TestStoredFieldsHaveReaders(t *testing.T) {
	r, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	targets := map[*ast.SelectorExpr]bool{} // assigned or incremented selectors
	for _, files := range r.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				}
				for _, e := range lhs {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						targets[sel] = true
					}
				}
				return true
			})
		}
	}

	name := map[*types.Var]string{} // stored field → "<dir>.<Type>.<Field>"
	for _, st := range storedTypes {
		dot := strings.LastIndexByte(st, '.')
		obj := r.pkgs["traceback/"+st[:dot]].Scope().Lookup(st[dot+1:])
		s, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("stored type %s is not a struct", st)
		}
		for i := 0; i < s.NumFields(); i++ {
			name[s.Field(i)] = st + "." + s.Field(i).Name()
		}
	}
	read := map[string]bool{}
	for sel, s := range r.info.Selections {
		if v, ok := s.Obj().(*types.Var); ok && s.Kind() == types.FieldVal && !targets[sel] {
			read[name[v]] = true
		}
	}

	var problems []string
	declared := map[string]bool{}
	for _, n := range name {
		declared[n] = true
		_, allowed := unreadFields[n]
		switch {
		case allowed && read[n]:
			problems = append(problems, n+" is read by production code now; take it off unreadFields")
		case !allowed && !read[n]:
			problems = append(problems, n+" is stored, but no non-test code reads it; delete it or read it")
		}
	}
	for n := range unreadFields {
		if !declared[n] {
			problems = append(problems, n+" is on unreadFields but is no stored field")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
