package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// lawAllow lists the findings the deletion laws tolerate, each with the
// reason it stays. A key names one declaration or a whole package. A key
// that names no finding fails the gate, so the list cannot outlive the code
// it excuses.
var lawAllow = map[string]string{
	"internal/tensor.(*FreeList).SetPoison":        "use-after-Put detector the race tests switch on",
	"internal/testutil":                            "test-support package: only _test.go files import it",
	"internal/transport.ServerConfig.RoundTimeout": "deployment setting (5-minute default) that tests shorten",
}

// TestDeletionLaws enforces DESIGN.md §1h's three laws on every non-test Go
// file of the module and of bench/: a declaration that no non-test file
// references is deleted, a field of a *Config struct that no non-test code
// sets is a constant, not a knob, and a top-level name under internal/
// that no other package needs is not exported.
func TestDeletionLaws(t *testing.T) {
	findings, err := lawFindings(".", "repro", "internal", "cmd", "examples", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range lawGate(findings, lawAllow) {
		t.Error(msg)
	}
}

// TestDeletionLawsFixture runs the gate on testdata/laws, a module of two
// libraries and one main whose declarations are the cases the gate must
// tell apart. p holds the deletion laws' cases; internal/e, under the
// export law, holds its cases.
func TestDeletionLawsFixture(t *testing.T) {
	findings, err := lawFindings("testdata/laws", "fixture", ".")
	if err != nil {
		t.Fatal(err)
	}
	const unexport = "exported, but no other package's non-test code uses it"
	want := map[string]string{
		"p.Square.Dead":         "no reference outside tests",
		"p.(*Stack).Drop":       "no reference outside tests",
		"p.FooConfig.Unset":     "a Config field no code outside tests sets",
		"p.FooConfig.Defaulted": "a Config field no code outside tests sets",
		"internal/e.OwnOnly":    unexport,
		"internal/e.TestOnly":   unexport,
	}
	got := map[string]string{}
	for name, f := range findings {
		got[name] = f.why
	}
	// Not reported: Square.Area (called only through Shape), base.Perimeter
	// (Labelled is implemented only by Tile, through embedding), Stack.Push
	// (called on an instance), armOnly (called only from p_arm64.go), and
	// p's exports, which sit outside internal/. Under the export law
	// e.Run (called only from a main package), e.Result (named only in
	// Run's result) and e.Sink (implemented only by cmd/app's bin).
	if !maps.Equal(got, want) {
		t.Errorf("findings %v, want %v", got, want)
	}
	msgs := lawGate(findings, map[string]string{
		"p.Square.Dead":       "allowlisted",
		"p.(*Stack).Drop":     "allowlisted",
		"internal/e.TestOnly": "allowlisted",
		"p.Gone":              "names no finding",
		"internal/e.Result":   "kept by Run's signature, so no finding",
	})
	wantMsgs := []string{"internal/e.OwnOnly: ", "internal/e.Result: ", "p.FooConfig.Defaulted: ", "p.FooConfig.Unset: ", "p.Gone: "}
	ok := len(msgs) == len(wantMsgs)
	for i := 0; ok && i < len(msgs); i++ {
		ok = strings.HasPrefix(msgs[i], wantMsgs[i])
	}
	if !ok {
		t.Errorf("gate with stale entries: got %q, want one message each for %q", msgs, wantMsgs)
	}
}

// lawArches are the GOARCHes whose file sets the gate checks: amd64 selects
// the assembly kernels' _amd64.go files, arm64 the portable _generic.go ones.
// A declaration is used if either file set references it.
var lawArches = []string{"amd64", "arm64"}

// lawFinding is one declaration that breaks a law.
type lawFinding struct {
	pkg string // import path relative to the module
	why string
}

// lawGate returns one message per finding the allowlist does not excuse and
// one per allowlist entry that excuses nothing.
func lawGate(findings map[string]lawFinding, allow map[string]string) []string {
	var msgs []string
	hit := map[string]bool{}
	for name, f := range findings {
		switch {
		case allow[name] != "":
			hit[name] = true
		case allow[f.pkg] != "":
			hit[f.pkg] = true
		default:
			msgs = append(msgs, name+": "+f.why)
		}
	}
	for key := range allow {
		if !hit[key] {
			msgs = append(msgs, key+": allowlisted but no longer a finding; delete the entry")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// lawStd type-checks the standard library from GOROOT source, once per test
// binary. The source importer reads build.Default; with cgo off it takes the
// pure-Go files of net and os/user instead of running the cgo tool.
var lawStd = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

// lawDecl is a declaration the laws apply to.
type lawDecl struct {
	name, pkg string
	config    bool // a field of a struct type named *Config: non-test code must set it
}

// lawScan accumulates declarations, references and field writes over every
// GOARCH pass. Objects are keyed by the position of their name, which both
// passes share because they share parsed files.
type lawScan struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string // import path → directory
	files  map[string]*ast.File
	decls  map[token.Pos]lawDecl
	used   map[token.Pos]bool
	set    map[token.Pos]bool

	// The export law's state: the exported package-level objects of
	// packages under internal/, and which of them non-test code of another
	// package names or a type of another package implements.
	exports map[token.Pos]types.Object
	kept    map[token.Pos]bool
}

// lawFindings type-checks the non-test files of every package under dirs
// (relative to root, the directory of module) once per GOARCH in lawArches
// and returns, keyed by qualified name, each declaration no non-test file
// references, each *Config field no non-test code sets, and each exported
// package-level declaration under internal/ that neither another package's
// non-test code names, nor a kept export's signature names, nor another
// package's type implements.
func lawFindings(root, module string, dirs ...string) (map[string]lawFinding, error) {
	fset, std := lawStd()
	s := &lawScan{
		module: module, fset: fset, std: std,
		dirs: map[string]string{}, files: map[string]*ast.File{},
		decls: map[token.Pos]lawDecl{}, used: map[token.Pos]bool{}, set: map[token.Pos]bool{},
		exports: map[token.Pos]types.Object{}, kept: map[token.Pos]bool{},
	}
	for _, d := range dirs {
		err := filepath.WalkDir(filepath.Join(root, d), func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if name := e.Name(); path != filepath.Join(root, d) &&
					(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				rel, err := filepath.Rel(root, filepath.Dir(path))
				if err != nil {
					return err
				}
				ip := module
				if rel != "." {
					ip += "/" + filepath.ToSlash(rel)
				}
				s.dirs[ip] = filepath.Dir(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(s.dirs))
	for ip := range s.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, arch := range lawArches {
		p := &lawPass{lawScan: s, ctx: build.Default, pkgs: map[string]*types.Package{}}
		p.ctx.GOARCH = arch
		for _, ip := range paths {
			if _, err := p.Import(ip); err != nil && !errors.As(err, new(*build.NoGoError)) {
				return nil, err
			}
		}
		p.markInterfaceMethods()
		p.markImplemented()
	}
	s.keepSignatureTypes()
	findings := map[string]lawFinding{}
	for pos, d := range s.decls {
		switch {
		case !s.used[pos]:
			findings[d.name] = lawFinding{d.pkg, "no reference outside tests"}
		case d.config && !s.set[pos]:
			findings[d.name] = lawFinding{d.pkg, "a Config field no code outside tests sets"}
		case s.exports[pos] != nil && !s.kept[pos]:
			findings[d.name] = lawFinding{d.pkg, "exported, but no other package's non-test code uses it"}
		}
	}
	return findings, nil
}

// lawPass type-checks the scanned packages for one GOARCH.
type lawPass struct {
	*lawScan
	ctx   build.Context
	pkgs  map[string]*types.Package
	infos []*types.Info
}

// Import type-checks a scanned package from its non-test files for the
// pass's GOARCH and hands every other path to the standard-library importer.
func (p *lawPass) Import(path string) (*types.Package, error) {
	dir, ok := p.dirs[path]
	if !ok {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := p.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		fn := filepath.Join(dir, name)
		f, ok := p.files[fn]
		if !ok {
			if f, err = parser.ParseFile(p.fset, fn, nil, 0); err != nil {
				return nil, err
			}
			p.files[fn] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: p, Sizes: types.SizesFor("gc", p.ctx.GOARCH)}
	pkg, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	p.infos = append(p.infos, info)
	p.declare(pkg, files, info)
	p.reference(pkg, files, info)
	if strings.HasPrefix(path, p.module+"/internal/") {
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				p.exports[obj.Pos()] = obj
			}
		}
	}
	return pkg, nil
}

// declare records the package's package-level funcs, types, consts and
// vars, its methods and the named fields of its type declarations. Embedded
// fields, main, init and blank names are exempt.
func (p *lawPass) declare(pkg *types.Package, files []*ast.File, info *types.Info) {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), p.module), "/")
	add := func(id *ast.Ident, name string, config bool) {
		if id.Name != "_" {
			p.decls[id.Pos()] = lawDecl{rel + "." + name, rel, config}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					add(d.Name, lawRecv(d.Recv.List[0].Type)+"."+d.Name.Name, false)
				case d.Name.Name != "init" && (d.Name.Name != "main" || pkg.Name() != "main"):
					add(d.Name, d.Name.Name, false)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name, false)
						}
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, false)
						st, direct := spec.Type.(*ast.StructType)
						config := direct && strings.HasSuffix(spec.Name.Name, "Config")
						ast.Inspect(spec.Type, func(n ast.Node) bool {
							if s, ok := n.(*ast.StructType); ok {
								for _, fld := range s.Fields.List {
									for _, id := range fld.Names {
										add(id, spec.Name.Name+"."+id.Name, config && s == st)
									}
								}
							}
							return true
						})
					}
				}
			}
		}
	}
}

// lawRecv spells a receiver type as a qualified method name does: T or (*T),
// with a generic type's parameters dropped.
func lawRecv(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + lawRecv(e.X) + ")"
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return lawRecv(e.X)
	case *ast.IndexListExpr:
		return lawRecv(e.X)
	}
	return "?"
}

// reference records every object the files use, which of them belong to
// another package, and every field the files set:
// a composite-literal element, an assignment, ++/-- or &x.f. An assignment
// inside an if whose condition reads the same field is a default, not a
// setter: `if c.N <= 0 { c.N = 10 }` leaves N a constant until some other
// code sets it.
func (p *lawPass) reference(pkg *types.Package, files []*ast.File, info *types.Info) {
	for _, obj := range info.Uses {
		p.used[obj.Pos()] = true
		if obj.Pkg() != nil && obj.Pkg() != pkg {
			p.kept[obj.Pos()] = true
		}
	}
	field := func(e ast.Expr) types.Object {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj()
			}
		}
		return nil
	}
	setField := func(e ast.Expr) {
		if obj := field(e); obj != nil {
			p.set[obj.Pos()] = true
		}
	}
	defaults := map[ast.Expr]bool{} // assignment targets that only default their field
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			read := map[types.Object]bool{}
			ast.Inspect(ifs.Cond, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					if obj := field(e); obj != nil {
						read[obj] = true
					}
				}
				return true
			})
			ast.Inspect(ifs.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						if obj := field(l); obj != nil && read[obj] {
							defaults[l] = true
						}
					}
				}
				return true
			})
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						p.set[info.Uses[kv.Key.(*ast.Ident)].Pos()] = true
					} else { // an unkeyed element sets its field but reads nothing
						p.set[st.Field(i).Pos()] = true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if !defaults[l] {
						setField(l)
					}
				}
			case *ast.IncDecStmt:
				setField(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setField(n.X)
				}
			}
			return true
		})
	}
}

// markInterfaceMethods marks as used every method that sits, declared or
// promoted through embedding, in the method set of a type implementing an
// interface that declares its name. The interfaces are those the pass's
// expressions and signatures mention, plus fmt.Stringer and json.Marshaler,
// which fmt and encoding/json reach by type assertion.
func (p *lawPass) markInterfaceMethods() {
	var ifaces []*types.Interface
	var named []*types.Named
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				walk(it)
			} else if t.TypeParams().Len() == t.TypeArgs().Len() {
				named = append(named, t)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			if t.IsMethodSet() && t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		default:
			for _, u := range lawParts(t) {
				walk(u)
			}
		}
	}
	for _, dyn := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		if pkg, err := p.std.Import(dyn[0]); err == nil {
			walk(pkg.Scope().Lookup(dyn[1]).Type())
		}
	}
	for _, info := range p.infos {
		for _, tv := range info.Types {
			walk(tv.Type)
		}
	}
	for _, t := range named {
		if t.Obj().Pkg() == nil || p.dirs[t.Obj().Pkg().Path()] == "" {
			continue
		}
		// *T's method set holds T's, so *T implements whatever T does.
		ptr := types.NewPointer(t)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					p.used[sel.Obj().Pos()] = true
				}
			}
		}
	}
}

// lawParts returns the types a composite type is built from: the element
// of a pointer, slice, array or channel, a map's key and element, a
// signature's parameter and result tuples and a tuple's members.
func lawParts(t types.Type) []types.Type {
	switch t := t.(type) {
	case *types.Pointer:
		return []types.Type{t.Elem()}
	case *types.Slice:
		return []types.Type{t.Elem()}
	case *types.Array:
		return []types.Type{t.Elem()}
	case *types.Chan:
		return []types.Type{t.Elem()}
	case *types.Map:
		return []types.Type{t.Key(), t.Elem()}
	case *types.Signature:
		return []types.Type{t.Params(), t.Results()}
	case *types.Tuple:
		parts := make([]types.Type, t.Len())
		for i := range parts {
			parts[i] = t.At(i).Type()
		}
		return parts
	}
	return nil
}

// markImplemented keeps every exported interface under internal/ that a
// package-level type of another package implements: that package satisfies
// it by its method set without naming it (transport.EdgeUplink is an
// fl.Syncer).
func (p *lawPass) markImplemented() {
	var impls []*types.TypeName
	for _, pkg := range p.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					impls = append(impls, tn)
				}
			}
		}
	}
	for _, pkg := range p.pkgs {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			it, ok := obj.Type().Underlying().(*types.Interface)
			if _, export := p.exports[obj.Pos()]; !ok || !export || it.NumMethods() == 0 {
				continue
			}
			for _, tn := range impls {
				if tn.Pkg() != pkg && types.Implements(types.NewPointer(tn.Type()), it) {
					p.kept[obj.Pos()] = true
					break
				}
			}
		}
	}
}

// keepSignatureTypes keeps, to a fixed point, every exported type under
// internal/ that a kept export names in its parameters, results, exported
// fields or exported methods' signatures: a caller that may call the
// export must be able to name what it takes and returns.
func (s *lawScan) keepSignatureTypes() {
	var queue []types.Object
	for pos, obj := range s.exports {
		if s.kept[pos] {
			queue = append(queue, obj)
		}
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if obj := s.exports[t.Obj().Pos()]; obj != nil && !s.kept[obj.Pos()] {
				s.kept[obj.Pos()] = true
				queue = append(queue, obj)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if t.Method(i).Exported() {
					walk(t.Method(i).Type())
				}
			}
		default:
			for _, u := range lawParts(t) {
				walk(u)
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		tn, ok := obj.(*types.TypeName)
		if !ok {
			walk(obj.Type())
			continue
		}
		t := tn.Type()
		if n, ok := t.(*types.Named); ok {
			for i := 0; i < n.NumMethods(); i++ {
				if n.Method(i).Exported() {
					walk(n.Method(i).Type())
				}
			}
		}
		walk(t.Underlying())
	}
}
