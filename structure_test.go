package salamander_test

// The structure gate: module-wide checks over the parsed source that keep
// the repository small and its one-implementation rules true.
//
//   - TestReachability type-checks every package and fails on any exported
//     identifier in non-test internal/ code that no non-test file uses, and
//     on any exported Config/Params/Spec field that no non-test code outside
//     its package sets, unless testdata/reachability_allow.txt lists it with
//     a reason. A stale allowlist row fails too, so the list only shrinks.
//   - TestStructure holds the single FTL engine, the single durable page
//     path, and the retired forks, perf gates, options and BENCH files gone.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "salamander"

// modPackage is one type-checked, non-test package of the module.
type modPackage struct {
	path  string
	files []*ast.File
	names []string // file paths, parallel to files
	info  *types.Info
}

type module struct {
	fset *token.FileSet
	pkgs []*modPackage // in dependency order
	imp  types.Importer
}

// loadModule type-checks every non-test package of the module from source.
// Standard-library imports are read from the compiler's export data, which
// `go list -export` leaves in the build cache.
func loadModule(t *testing.T) *module {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
	}
	var (
		own     []listed
		exports = map[string]string{}
	)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.ImportPath == modulePath || strings.HasPrefix(p.ImportPath, modulePath+"/") {
			own = append(own, p)
		} else {
			exports[p.ImportPath] = p.Export
		}
	}

	m := &module{fset: token.NewFileSet()}
	imp := moduleImporter{
		own: map[string]*types.Package{},
		std: importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	for _, p := range own {
		mp := &modPackage{path: p.ImportPath, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(m.fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			mp.files = append(mp.files, f)
			mp.names = append(mp.names, path)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, m.fset, mp.files, mp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.own[p.ImportPath] = tp
		m.pkgs = append(m.pkgs, mp)
	}
	m.imp = imp
	return m
}

// moduleImporter hands out the source-checked module packages, so objects
// keep one identity across the module, and export data for everything else.
type moduleImporter struct {
	own map[string]*types.Package
	std types.Importer
}

func (i moduleImporter) Import(path string) (*types.Package, error) {
	if p := i.own[path]; p != nil {
		return p, nil
	}
	return i.std.Import(path)
}

func isInternal(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, modulePath+"/internal/")
}

// objKey names an object for the allowlist: pkg.Name, pkg.Recv.Method or
// pkg.Struct.Field, where pkg is the package's last path element.
func objKey(obj types.Object, owner string) string {
	pkg := obj.Pkg().Path()
	pkg = pkg[strings.LastIndex(pkg, "/")+1:]
	if owner != "" {
		return pkg + "." + owner + "." + obj.Name()
	}
	return pkg + "." + obj.Name()
}

// recvNamed is a method's receiver base type, or nil for a plain func.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// origin maps an instantiated generic method or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type span struct{ from, to token.Pos }

// unreferenced returns the keys of exported funcs, methods, types, consts
// and vars in non-test internal/ code that no non-test file of the module
// uses. A use inside the identifier's own declaration (recursion, a
// receiver) does not count, and a method counts as used when it implements
// an interface the module uses.
func unreferenced(m *module) []string {
	type candidate struct {
		key  string
		self []span
	}
	cands := map[types.Object]*candidate{}
	recvs := map[*types.TypeName][]span{}
	for _, p := range m.pkgs {
		if !isInternal(p.path) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					owner := ""
					if recv := recvNamed(fn); recv != nil {
						owner = recv.Obj().Name()
						recvs[recv.Obj()] = append(recvs[recv.Obj()], span{d.Recv.Pos(), d.Recv.End()})
					}
					if d.Name.IsExported() {
						cands[fn] = &candidate{key: objKey(fn, owner), self: []span{{d.Pos(), d.End()}}}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								obj := p.info.Defs[s.Name]
								cands[obj] = &candidate{key: objKey(obj, ""), self: []span{{s.Pos(), s.End()}}}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									obj := p.info.Defs[n]
									cands[obj] = &candidate{key: objKey(obj, ""), self: []span{{s.Pos(), s.End()}}}
								}
							}
						}
					}
				}
			}
		}
	}
	for tn, spans := range recvs {
		if c := cands[tn]; c != nil {
			c.self = append(c.self, spans...)
		}
	}

	used := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			c := cands[obj]
			if c == nil || used[obj] {
				continue
			}
			self := false
			for _, s := range c.self {
				if id.Pos() >= s.from && id.Pos() < s.to {
					self = true
				}
			}
			if !self {
				used[obj] = true
			}
		}
	}

	ifaces := usedInterfaces(m)
	var out []string
	for obj, c := range cands {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && implementsUsed(fn, ifaces) {
			continue
		}
		out = append(out, c.key)
	}
	sort.Strings(out)
	return out
}

// usedInterfaces collects every interface with methods that the module's
// code mentions, directly or as a parameter or result of a function it
// calls, plus the two that the standard library consults without a static
// mention: fmt.Stringer and errors' Unwrap() error.
func usedInterfaces(m *module) []*types.Interface {
	seen := map[types.Type]bool{}
	var out []*types.Interface
	var add func(t types.Type, depth int)
	add = func(t types.Type, depth int) {
		if t == nil || seen[t] || depth > 2 {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 {
				out = append(out, u)
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					add(tup.At(i).Type(), depth+1)
				}
			}
		case *types.Slice:
			add(u.Elem(), depth+1)
		case *types.Pointer:
			add(u.Elem(), depth+1)
		}
	}
	for _, p := range m.pkgs {
		for _, tv := range p.info.Types {
			add(tv.Type, 0)
		}
		for _, obj := range p.info.Uses {
			add(obj.Type(), 0)
		}
	}
	// errors.Is and errors.As walk a chain through Unwrap() error.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(), 0)
	if fmtPkg, err := m.imp.Import("fmt"); err == nil {
		add(fmtPkg.Scope().Lookup("Stringer").Type(), 0)
	}
	return out
}

// implementsUsed reports whether fn's receiver type implements one of
// ifaces through a method named like fn.
func implementsUsed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := recvNamed(fn)
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
			}
		}
		if has && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// unsetConfigFields returns the keys of exported fields of Config, Params
// and Spec structs in non-test internal/ code that no non-test code outside
// the struct's own package sets: by a composite-literal key, an assignment,
// an increment or by taking the field's address. A struct counts as
// configuration when some function takes it as a parameter or receiver; a
// computed result that only happens to be named like one does not.
func unsetConfigFields(m *module) []string {
	inputs := map[*types.TypeName]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				sig := p.info.Defs[fd.Name].Type().(*types.Signature)
				vars := []*types.Var{sig.Recv()}
				for i := 0; i < sig.Params().Len(); i++ {
					vars = append(vars, sig.Params().At(i))
				}
				for _, v := range vars {
					if v == nil {
						continue
					}
					t := v.Type()
					if pt, ok := t.(*types.Pointer); ok {
						t = pt.Elem()
					}
					if n, ok := t.(*types.Named); ok {
						inputs[n.Obj()] = true
					}
				}
			}
		}
	}
	fields := map[*types.Var]string{}
	for tn := range inputs {
		name := tn.Name()
		if tn.Pkg() == nil || !isInternal(tn.Pkg().Path()) || !(strings.HasSuffix(name, "Config") ||
			strings.HasSuffix(name, "Params") || strings.HasSuffix(name, "Spec")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = objKey(f, name)
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		mark := func(v types.Object) {
			if f, ok := v.(*types.Var); ok && f.IsField() && f.Pkg() != nil && f.Pkg().Path() != p.path {
				set[f.Origin()] = true
			}
		}
		// markLHS marks every field selected along an assigned expression,
		// including embedded fields a promoted selection passes through.
		markLHS := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					mark(p.info.Uses[x.Sel])
					if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						t := sel.Recv()
						for _, i := range sel.Index() {
							if pt, ok := t.Underlying().(*types.Pointer); ok {
								t = pt.Elem()
							}
							st, ok := t.Underlying().(*types.Struct)
							if !ok {
								break
							}
							mark(st.Field(i))
							t = st.Field(i).Type()
						}
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := p.info.Types[n]
					if !ok {
						return true
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(p.info.Uses[id])
							}
						} else if i < st.NumFields() {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						markLHS(l)
					}
				case *ast.IncDecStmt:
					markLHS(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markLHS(n.X)
					}
				}
				return true
			})
		}
	}

	var out []string
	for v, key := range fields {
		if !set[v] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// readAllowlist parses testdata/reachability_allow.txt: one key and its
// reason per line, blank lines and #-comments ignored.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "reachability_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("allowlist row %q gives no reason", key)
		}
		if _, dup := allow[key]; dup {
			t.Errorf("allowlist row %q appears twice", key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func TestReachability(t *testing.T) {
	m := loadModule(t)
	allow := readAllowlist(t)
	found := map[string]bool{}
	for _, key := range unreferenced(m) {
		found[key] = true
		if _, ok := allow[key]; !ok {
			t.Errorf("%s is exported from internal/ but no non-test code uses it: give it a caller or delete it", key)
		}
	}
	for _, key := range unsetConfigFields(m) {
		found[key] = true
		reason, ok := allow[key]
		switch {
		case !ok:
			t.Errorf("config field %s is set by no non-test code outside its package: make it a constant or delete it", key)
		case !strings.Contains(reason, "Test") && !strings.Contains(reason, "Benchmark"):
			t.Errorf("allowlist row for config field %s must name the test or benchmark that sets it", key)
		}
	}
	for key := range allow {
		if !found[key] {
			t.Errorf("allowlist row %s is stale (the identifier is used or gone): delete the row", key)
		}
	}
}

// moduleGoFiles returns every .go file under the module root, test files
// included, keyed by slash path.
func moduleGoFiles(t *testing.T) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(path)] = b
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// The retired names below are split in two so that this file does not
// match itself.
func TestStructure(t *testing.T) {
	m := loadModule(t)

	t.Run("OneFTLEngine", func(t *testing.T) {
		// ssd.Device and core.Device run on internal/ftl's engine; a second
		// copy of any data-path function is the fork growing back.
		defs := map[string]int{}
		for _, p := range m.pkgs {
			if !isInternal(p.path) {
				continue
			}
			for _, f := range p.files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
						defs[fd.Name.Name]++
					}
				}
			}
		}
		for _, fn := range []string{"readOPageOnce", "readOPageInto", "sectorErasures",
			"composePageInto", "programPage", "ensureActive", "pickVictim", "collect"} {
			if defs[fn] != 1 {
				t.Errorf("method %s is defined %d times in non-test internal/ (want 1)", fn, defs[fn])
			}
		}
	})

	t.Run("OneDurablePagePath", func(t *testing.T) {
		// blockdev.DurableDevice and core.Durable share blockdev.Persister,
		// so the page key format is written once.
		n := 0
		for _, p := range m.pkgs {
			if !isInternal(p.path) {
				continue
			}
			for _, name := range p.names {
				b, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, line := range strings.Split(string(b), "\n") {
					if strings.Contains(line, "pg/"+"%d/%d") {
						n++
					}
				}
			}
		}
		if n != 1 {
			t.Errorf("the pg/%%d/%%d key format is written on %d lines of non-test internal/ (want 1)", n)
		}
	})

	t.Run("EventsUnsequenced", func(t *testing.T) {
		// difs applies queued device events in fan-out order. Numbering
		// and re-sorting them served only a concurrent repair fork.
		for _, p := range m.pkgs {
			if p.path != modulePath+"/internal/difs" {
				continue
			}
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch d := n.(type) {
					case *ast.TypeSpec:
						if st, ok := d.Type.(*ast.StructType); ok && d.Name.Name == "queuedEvent" {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if id.Name == "seq" {
										t.Errorf("queuedEvent has a seq field again")
									}
								}
							}
						}
					case *ast.FuncDecl:
						if d.Recv != nil && types.ExprString(d.Recv.List[0].Type) == "queuedEvent" {
							t.Errorf("queuedEvent has a method %s again", d.Name.Name)
						}
					}
					return true
				})
			}
		}
	})

	t.Run("RetiredStaysGone", func(t *testing.T) {
		files := moduleGoFiles(t)
		ci, err := os.ReadFile("ci.sh")
		if err != nil {
			t.Fatal(err)
		}
		retired := []struct {
			what, pattern string
			inCI          bool // ci.sh is searched too
		}{
			// The parallel-flush fork deleted when the FTL engine was unified.
			{"parallel-flush fork", "Parallel" + "Flush", false},
			{"parallel-flush fork", "drain" + "Parallel", false},
			{"parallel-flush fork", "flush" + "Stripe", false},
			{"parallel-flush fork", "in" + "GC", false},
			// The perf gates retired for alternating benchmark pairs: a
			// sleep-paced server, the shard-scaling queueing model and the
			// wall-clock baseline comparators.
			{"retired perf gate", "Service" + "Time", true},
			{"retired perf gate", "service-" + "time", true},
			{"retired perf gate", "MeasureShard" + "Scaling", true},
			{"retired perf gate", "shard" + "bench", true},
			{"retired perf gate", "compareECC" + "Baseline", true},
			{"retired perf gate", "ecc-" + "baseline", true},
			{"retired perf gate", "parallel-" + "baseline", true},
			{"retired perf gate", "p99-" + "tolerance", true},
			{"retired perf gate", "regression" + "Tolerance", true},
			// The durable options retired for blockdev.Persister.
			{"retired durable option", "Durable" + "Options", true},
			{"retired durable option", "Replay" + "Stats", true},
			{"retired durable option", "Checkpoint" + "Every", true},
			// The parallel repair fork: one repair pass (Cluster.RepairCtx)
			// is the only path, so its events never need re-sorting.
			{"parallel repair fork", "Repair" + "Parallel", false},
			{"parallel repair fork", "repair" + "Parallel", false},
			{"parallel repair fork", "settle" + "Sorted", false},
			{"parallel repair fork", "ev" + "Seq", false},
			// The record/replay trace tool and its codec; salmon -trace is
			// the one trace summary.
			{"trace codec", "Read" + "Trace", false},
			{"trace codec", "KindHost" + "Read", false},
			{"trace codec", "KindHost" + "Write", false},
			{"trace tool", "sal" + "trace", true},
			// Wire ops no client sent; their opcodes stay reserved.
			{"retired wire op", "Op" + "List", false},
			{"retired wire op", "Op" + "ShardMap", false},
		}
		var names []string
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, r := range retired {
			for _, name := range names {
				if bytes.Contains(files[name], []byte(r.pattern)) {
					t.Errorf("%s is back: %s mentions %s", r.what, name, r.pattern)
				}
			}
			if r.inCI && bytes.Contains(ci, []byte(r.pattern)) {
				t.Errorf("%s is back: ci.sh mentions %s", r.what, r.pattern)
			}
		}
		for _, path := range []string{
			filepath.Join("internal", "ssd", "parallel.go"),
			filepath.Join("internal", "difs", "parallel.go"),
			filepath.Join("internal", "workload", "trace.go"),
			filepath.Join("cmd", "sal"+"trace"),
		} {
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%s exists", path)
			}
		}
		if saldifs, err := os.ReadFile(filepath.Join("cmd", "saldifs", "main.go")); err != nil {
			t.Fatal(err)
		} else if bytes.Contains(saldifs, []byte(`"`+`parallel"`)) {
			t.Errorf("saldifs -parallel is back: cmd/saldifs/main.go defines it")
		}
	})

	t.Run("NoBenchFiles", func(t *testing.T) {
		// Every checked-in performance figure comes from running the real
		// code path; wall-clock evidence is the benchmark's paired runs.
		bench, err := filepath.Glob("BENCH_*.json")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range bench {
			t.Errorf("%s exists: no BENCH_*.json file is checked in", f)
		}
	})
}
