package main

import (
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
	"internal/collect.Server.Draining":      "the drain tests read the daemon's state with it",
	"internal/archive.Archive.Root":         "the collect tests read the journal file under it",
}

// unsetFields are the exported fields of …Config and …Options structs
// that no production code sets, each with the reason it stays.
var unsetFields = map[string]string{
	"internal/tbrt.Config.TLSSlot":         "paper §2.5's TLS-slot fixup at load; rebase_test drives it",
	"internal/tbrt.Config.UseLogicalClock": "paper §3.5's logical clock for platforms without a fine clock; figure3_test drives it",
	"internal/collect.AgentOptions.Sleep":  "the test seam that runs the agent's backoff without waiting",
	"internal/shard/gate.Options.Client":   "the test seam that points the gate at a client of the test's choosing",
}

// TestExportsHaveProductionCallers keeps the production code to what
// production runs. Every exported function or method declared in a
// non-test file outside bench/ and internal/loopback must be referenced
// by some non-test file, bench/ included, outside its own declaration.
// A function matches by its bare name inside its package and by
// pkg.Name where a file imports it; a method matches by .Name anywhere
// except on an imported package name, where pkg.Name is a function.
// A mechanism that only tests drive fails here: wire it or delete it.
//
// The same holds for settings: every exported field of an exported
// …Config or …Options struct must be set by name in some non-test
// file, bench/ included — as a key of a composite literal of that
// type (written out, or elided inside a slice or map literal), or on
// the left of an assignment x.Field = … outside the struct's own
// package (inside it, such an assignment fills in a default). The
// assignment counts for the struct x is declared as in its function,
// and for every struct with a field of that name when x's type is not
// written there. A setting production never changes is a constant: make it
// one, or give it a reason on unsetFields.
func TestExportsHaveProductionCallers(t *testing.T) {
	const repo = "../.."
	type decl struct {
		key  string // match key: "<import path>.<Name>", or ".<Name>" for a method
		pos  string
		name string // what the failure and the allowlist call it
	}
	var decls []decl
	called := map[string]bool{} // match keys referenced outside their own declaration
	var fields []decl           // key "<import path>.<Type>.<Field>"
	set := map[string]bool{}    // field keys set in a composite literal
	type assign struct{ pkg, typ, field string }
	var assigns []assign // x.Field = …; typ is x's type where it is known, else ""
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
		// typeKey names the type written at e: "<import path>.<Name>".
		typeKey := func(e ast.Expr) string {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			switch x := e.(type) {
			case *ast.Ident:
				return pkg + "." + x.Name
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					return imports[id.Name] + "." + x.Sel.Name
				}
			}
			return ""
		}
		setKeys := func(lit *ast.CompositeLit, typ string) {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && typ != "" {
						set[typ+"."+id.Name] = true
					}
				}
			}
		}
		for _, dl := range f.Decls {
			if gd, ok := dl.(*ast.GenDecl); ok && !strings.HasPrefix(rel, "bench/") {
				for _, sp := range gd.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if n.IsExported() {
								fields = append(fields, decl{pkg + "." + ts.Name.Name + "." + n.Name,
									rel + ":" + strconv.Itoa(fset.Position(n.Pos()).Line), dir + "." + ts.Name.Name + "." + n.Name})
							}
						}
					}
				}
			}
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
			// locals are the types of fd's parameters and of the
			// variables it declares with a type or a composite literal.
			locals := map[string]string{}
			if fd != nil {
				ast.Inspect(fd, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Field:
						for _, id := range n.Names {
							locals[id.Name] = typeKey(n.Type)
						}
					case *ast.ValueSpec:
						for _, id := range n.Names {
							locals[id.Name] = typeKey(n.Type)
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							id, ok := lhs.(*ast.Ident)
							if !ok || n.Tok != token.DEFINE || len(n.Rhs) != len(n.Lhs) {
								continue
							}
							rhs := n.Rhs[i]
							if u, ok := rhs.(*ast.UnaryExpr); ok {
								rhs = u.X
							}
							if lit, ok := rhs.(*ast.CompositeLit); ok {
								locals[id.Name] = typeKey(lit.Type)
							}
						}
					}
					return true
				})
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					setKeys(n, typeKey(n.Type))
					var elem ast.Expr
					switch lt := n.Type.(type) {
					case *ast.ArrayType:
						elem = lt.Elt
					case *ast.MapType:
						elem = lt.Value
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							el = kv.Value
						}
						if u, ok := el.(*ast.UnaryExpr); ok {
							el = u.X
						}
						if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && elem != nil {
							setKeys(inner, typeKey(elem))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							a := assign{pkg: pkg, field: sel.Sel.Name}
							if id, ok := sel.X.(*ast.Ident); ok {
								a.typ = locals[id.Name]
							}
							assigns = append(assigns, a)
						}
					}
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
	declared = map[string]bool{}
	for _, fl := range fields {
		declared[fl.name] = true
		isSet := set[fl.key]
		dot := strings.LastIndexByte(fl.key, '.')
		typ, field := fl.key[:dot], fl.key[dot+1:]
		for _, a := range assigns {
			isSet = isSet || (a.field == field && (a.typ == "" || a.typ == typ) && !strings.HasPrefix(typ, a.pkg+"."))
		}
		_, allowed := unsetFields[fl.name]
		switch {
		case allowed && isSet:
			problems = append(problems, fl.pos+": "+fl.name+" is set by production code now; take it off unsetFields")
		case !allowed && !isSet:
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

// storedTypes are the types a snap, a mapfile or the warehouse journal
// stores on disk.
var storedTypes = []string{
	"internal/snap.Snap", "internal/snap.ModuleInfo", "internal/snap.BufferDump", "internal/snap.NondetLog",
	"internal/module.MapFile", "internal/module.MapDAG", "internal/module.MapBlock", "internal/module.LineSpan", "internal/module.Global",
	"internal/archive.JournalRecord",
}

// unreadFields are the stored fields no production code reads, each
// with the reason it stays.
var unreadFields = map[string]string{
	"internal/snap.ModuleInfo.Unloaded": "open question (ROADMAP): snap.ModuleForDAG ignores it, so after an unload whose DAG range tbrt.chooseBase gives to another module, records of both resolve through one mapfile",
	"internal/snap.Snap.FaultAddr":      "the trace's exception record carries the same address; it goes with ROADMAP item 1's re-encoding of the snap, which changes every snap's bytes anyway",
}

// TestStoredFieldsHaveReaders keeps what is stored to what something
// reads. Every field of a stored type must be read in some non-test
// file, bench/ included: a selector x.F, resolved by the type checker,
// that is not the target of an assignment or an increment. JSON
// encoding and decoding do not count. A field nothing reads is bytes
// every snap, mapfile or journal line carries for no one: delete it,
// or give it a reason on unreadFields.
func TestStoredFieldsHaveReaders(t *testing.T) {
	const repo = "../.."
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}       // import path → non-test files
	targets := map[*ast.SelectorExpr]bool{} // assigned or incremented selectors
	err := filepath.WalkDir(repo, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != repo && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(repo, filepath.Dir(p))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("traceback", filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Type-check every package from source, this module's imports
	// through the same cache, so a field is one object everywhere.
	std := importer.Default()
	checked := map[string]*types.Package{}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg := checked[ip]; pkg != nil {
			return pkg, nil
		}
		if files[ip] == nil {
			return std.Import(ip)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(ip, fset, files[ip], info)
		checked[ip] = pkg
		return pkg, err
	}
	for ip := range files {
		if _, err := imp(ip); err != nil {
			t.Fatalf("type-checking %s: %v", ip, err)
		}
	}

	name := map[*types.Var]string{} // stored field → "<dir>.<Type>.<Field>"
	for _, st := range storedTypes {
		dot := strings.LastIndexByte(st, '.')
		obj := checked["traceback/"+st[:dot]].Scope().Lookup(st[dot+1:])
		s, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("stored type %s is not a struct", st)
		}
		for i := 0; i < s.NumFields(); i++ {
			name[s.Field(i)] = st + "." + s.Field(i).Name()
		}
	}
	read := map[string]bool{}
	for sel, s := range info.Selections {
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
