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
	"reflect"
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
	"internal/codec.Verbatim":                      "bench/layers.go asserts it: a verbatim codec never encodes on the simulated channel, so its ledger leaves the encode cost out",
	"internal/tensor.(*FreeList).SetPoison":        "use-after-Put detector the race tests switch on",
	"internal/testutil":                            "test-support package: only _test.go files import it",
	"internal/transport.ServerConfig.RoundTimeout": "deployment setting (5-minute default) that tests shorten",

	// fl's tests build populations no non-test caller builds. No exported
	// path sets these, and a test is no taker, so no rule sees the reader.
	"internal/dataset.Config.PowerLaw":          "fl's useLSTM case (TestLazyEnvMatchesEagerRun, TestEnvReuseDeterministic) builds a token-like population",
	"internal/dataset.Config.SeqLen":            "fl's useLSTM case (TestLazyEnvMatchesEagerRun, TestEnvReuseDeterministic) builds a token-like population",
	"internal/dataset.Config.Vocab":             "fl's useLSTM case (TestLazyEnvMatchesEagerRun, TestEnvReuseDeterministic) builds a token-like population",
	"internal/simnet.ClientRuntime.DropAt":      "fl's dropFabric scripts a departure mid-run (TestDropoutsReduceParticipants, TestRetierRevivesDeadTier)",
	"internal/simnet.ClientRuntime.DelayLo":     "TestRetierRevivesDeadTier speeds one materialized client up mid-run",
	"internal/simnet.ClientRuntime.DelayHi":     "TestRetierRevivesDeadTier speeds one materialized client up mid-run",
	"internal/simnet.ClientRuntime.SecPerBatch": "TestRetierRevivesDeadTier speeds one materialized client up mid-run",
}

// TestDeletionLaws enforces DESIGN.md §1h's six laws on every non-test Go
// file of the module and of bench/: a declaration that no non-test file
// references is deleted, a field of a *Config struct that no non-test code
// sets is a constant, not a knob, a top-level name or a method or field
// under internal/ that no other package needs is not exported, a field
// under internal/ that non-test code only writes is deleted, and an
// interface under internal/ needs a caller for every method and two
// implementing types.
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
// export law, holds its cases, the member laws' and the interface law's.
func TestDeletionLawsFixture(t *testing.T) {
	findings, err := lawFindings("testdata/laws", "fixture", ".")
	if err != nil {
		t.Fatal(err)
	}
	const unexport = "exported, but no other package's non-test code uses it"
	const dead = "a field non-test code only writes"
	want := map[string]string{
		"internal/e.shape.name":       "an interface method non-test code never calls",
		"internal/e.solver":           "an interface with fewer than two implementing types",
		"internal/e.tally.span.Start": unexport,
		"internal/e.tally.span.end":   dead,
		"p.Square.Dead":               "no reference outside tests",
		"p.(*Stack).Drop":             "no reference outside tests",
		"p.FooConfig.Unset":           "a Config field no code outside tests sets",
		"p.FooConfig.Defaulted":       "a Config field no code outside tests sets",
		"internal/e.OwnOnly":          unexport,
		"internal/e.TestOnly":         unexport,
		"internal/e.Meter.Count":      unexport,
		"internal/e.(*Meter).Reset":   unexport,
		"internal/e.Meter.hits":       dead,
		"internal/e.Meter.seen":       dead,
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
	// Run's result) and e.Sink (outside e's tests, implemented only by cmd/app's bin). Under
	// the member laws Meter.Label (selected by cmd/app), (*Meter).Probe
	// (implements cmd/app's prober), tick.At (reaches json.Marshal through
	// an interface) and vec's X and Y (named by a body-less func). Under the
	// interface law shape.area (called only through shape), solver.step
	// (called only on gradient), cornered.corners (kept by a type assertion
	// alone), Sink (implemented by cmd/app's bin
	// and e's test fake) and event (tick and tock). In tally key's a and b
	// (read by the map that hashes key).
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
	wantMsgs := []string{"internal/e.(*Meter).Reset: ", "internal/e.Meter.Count: ", "internal/e.Meter.hits: ", "internal/e.Meter.seen: ",
		"internal/e.OwnOnly: ", "internal/e.Result: ", "internal/e.shape.name: ", "internal/e.solver: ",
		"internal/e.tally.span.Start: ", "internal/e.tally.span.end: ", "p.FooConfig.Defaulted: ", "p.FooConfig.Unset: ", "p.Gone: "}
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
	field     bool // a field of a type under internal/: non-test code must read it
	member    bool // an exported method or field of a type under internal/
	iface     bool // an interface type under internal/: it needs two implementing types
	method    bool // a method an interface under internal/ declares: non-test code must call it
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

	// The member laws' state: fields non-test code reads, methods an
	// interface keeps, and fields encoding/json or assembly reads where
	// the type-checker cannot see it.
	read   map[token.Pos]bool
	iface  map[token.Pos]bool
	opaque map[token.Pos]bool

	// The interface law's state: the interface methods non-test code calls
	// or a type assertion keeps, and each interface's implementing types,
	// keyed by the position of the type's name.
	needed map[token.Pos]bool
	impls  map[token.Pos]map[token.Pos]bool
}

// lawFindings type-checks the non-test files of every package under dirs
// (relative to root, the directory of module) once per GOARCH in lawArches
// and returns, keyed by qualified name, each declaration no non-test file
// references, each *Config field no non-test code sets, and each exported
// package-level declaration under internal/ that neither another package's
// non-test code names, nor a kept export's signature names, nor another
// package's type implements. Of the types under internal/ it also returns
// each field that non-test code only writes, and each exported method or
// field that another package's non-test code does not select, unless an
// interface keeps the method or encoding/json or assembly reads the field.
// Of the interfaces under internal/ it returns each method non-test code
// never calls and no type assertion keeps, and each interface with fewer
// than two implementing types, a fake in the package's own tests counted.
func lawFindings(root, module string, dirs ...string) (map[string]lawFinding, error) {
	fset, std := lawStd()
	s := &lawScan{
		module: module, fset: fset, std: std,
		dirs: map[string]string{}, files: map[string]*ast.File{},
		decls: map[token.Pos]lawDecl{}, used: map[token.Pos]bool{}, set: map[token.Pos]bool{},
		exports: map[token.Pos]types.Object{}, kept: map[token.Pos]bool{},
		read: map[token.Pos]bool{}, iface: map[token.Pos]bool{}, opaque: map[token.Pos]bool{},
		needed: map[token.Pos]bool{}, impls: map[token.Pos]map[token.Pos]bool{},
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
	var p *lawPass
	for _, arch := range lawArches {
		p = &lawPass{lawScan: s, ctx: build.Default, pkgs: map[string]*types.Package{}, selected: map[token.Pos]bool{}}
		p.ctx.GOARCH = arch
		for _, ip := range paths {
			if _, err := p.Import(ip); err != nil && !errors.As(err, new(*build.NoGoError)) {
				return nil, err
			}
		}
		p.markInterfaceMethods()
		p.markImplemented()
		p.markOpaque()
		p.markInterfaceNeeds(p.named)
	}
	if err := p.markTestFakes(paths); err != nil {
		return nil, err
	}
	s.keepSignatureTypes()
	findings := map[string]lawFinding{}
	for pos, d := range s.decls {
		switch {
		case d.method:
			if !s.needed[pos] {
				findings[d.name] = lawFinding{d.pkg, "an interface method non-test code never calls"}
			}
		case !s.used[pos]:
			findings[d.name] = lawFinding{d.pkg, "no reference outside tests"}
		case d.config && !s.set[pos]:
			findings[d.name] = lawFinding{d.pkg, "a Config field no code outside tests sets"}
		case s.exports[pos] != nil && !s.kept[pos]:
			findings[d.name] = lawFinding{d.pkg, "exported, but no other package's non-test code uses it"}
		case d.field && !s.read[pos] && !s.opaque[pos]:
			findings[d.name] = lawFinding{d.pkg, "a field non-test code only writes"}
		case d.member && !s.kept[pos] && !s.iface[pos] && !s.opaque[pos]:
			findings[d.name] = lawFinding{d.pkg, "exported, but no other package's non-test code uses it"}
		case d.iface && len(s.impls[pos]) < 2:
			findings[d.name] = lawFinding{d.pkg, "an interface with fewer than two implementing types"}
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

	// jsonArgs are the static types of the values non-test code hands to
	// encoding/json; asmArgs are the signatures of body-less funcs.
	jsonArgs, asmArgs []types.Type

	// named are the pass's non-generic defined types, package-level or
	// declared inside a func; selected holds the methods non-test code
	// calls or takes as a value.
	named    []*types.TypeName
	selected map[token.Pos]bool
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
	files, err := p.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
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
	p.named = append(p.named, lawNamed(info.Defs)...)
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

// parse returns the named files of dir, each parsed once per scan.
func (p *lawPass) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		fn := filepath.Join(dir, name)
		f, ok := p.files[fn]
		if !ok {
			var err error
			if f, err = parser.ParseFile(p.fset, fn, nil, 0); err != nil {
				return nil, err
			}
			p.files[fn] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// declare records the package's package-level funcs, types, consts and
// vars, its methods, the types declared inside its funcs, the named fields
// of its type declarations, and, under internal/, the interfaces and the
// methods they declare. Embedded fields, main, init and blank names are
// exempt. A type declared inside a func is named after the func:
// experiments.robustness.gridKey.
func (p *lawPass) declare(pkg *types.Package, files []*ast.File, info *types.Info) {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), p.module), "/")
	internal := strings.HasPrefix(rel, "internal/")
	add := func(id *ast.Ident, name string, d lawDecl) {
		if id.Name != "_" {
			d.name, d.pkg = rel+"."+name, rel
			p.decls[id.Pos()] = d
		}
	}
	typeSpec := func(spec *ast.TypeSpec, scope string) {
		name := scope + spec.Name.Name
		var iface bool
		if it, ok := spec.Type.(*ast.InterfaceType); ok && internal && spec.TypeParams == nil {
			t := info.Defs[spec.Name].Type().Underlying().(*types.Interface)
			if iface = t.IsMethodSet() && t.NumMethods() > 0; iface {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						add(id, name+"."+id.Name, lawDecl{method: true})
					}
				}
			}
		}
		add(spec.Name, name, lawDecl{iface: iface})
		st, direct := spec.Type.(*ast.StructType)
		config := direct && strings.HasSuffix(spec.Name.Name, "Config")
		ast.Inspect(spec.Type, func(n ast.Node) bool {
			if s, ok := n.(*ast.StructType); ok {
				for _, fld := range s.Fields.List {
					for _, id := range fld.Names {
						add(id, name+"."+id.Name, lawDecl{
							config: config && s == st, field: internal, member: internal && id.IsExported(),
						})
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body == nil && d.Recv == nil {
					p.asmArgs = append(p.asmArgs, pkg.Scope().Lookup(d.Name.Name).Type())
				}
				name := d.Name.Name
				switch {
				case d.Recv != nil:
					name = lawRecv(d.Recv.List[0].Type) + "." + name
					add(d.Name, name, lawDecl{member: internal && d.Name.IsExported()})
				case name != "init" && (name != "main" || pkg.Name() != "main"):
					add(d.Name, name, lawDecl{})
				}
				if d.Body != nil {
					ast.Inspect(d.Body, func(n ast.Node) bool {
						if ds, ok := n.(*ast.DeclStmt); ok {
							for _, spec := range ds.Decl.(*ast.GenDecl).Specs {
								if spec, ok := spec.(*ast.TypeSpec); ok {
									typeSpec(spec, name+".")
								}
							}
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name, lawDecl{})
						}
					case *ast.TypeSpec:
						typeSpec(spec, "")
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
// another package, every field the files read, every value they hand to
// encoding/json, and every field the files set:
// a composite-literal element, an assignment, ++/-- or &x.f. An assignment
// inside an if whose condition reads the same field is a default, not a
// setter: `if c.N <= 0 { c.N = 10 }` leaves N a constant until some other
// code sets it. A field use is a read unless it is a write: a
// composite-literal element, an assignment target or ++/--.
func (p *lawPass) reference(pkg *types.Package, files []*ast.File, info *types.Info) {
	writes := map[*ast.Ident]bool{} // the selector of each field write
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
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
						writes[kv.Key.(*ast.Ident)] = true
						p.set[info.Uses[kv.Key.(*ast.Ident)].Pos()] = true
					} else { // an unkeyed element sets its field but reads nothing
						p.set[st.Field(i).Pos()] = true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					write(l)
					if !defaults[l] {
						setField(l)
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
				setField(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setField(n.X)
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					p.assert(info.Types[n.Type].Type)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						p.assert(info.Types[e].Type)
					}
				}
			case *ast.CallExpr:
				var fn types.Object
				switch f := ast.Unparen(n.Fun).(type) {
				case *ast.SelectorExpr:
					fn = info.Uses[f.Sel]
				case *ast.Ident:
					fn = info.Uses[f]
				}
				if fn, ok := fn.(*types.Func); ok {
					if arg, ok := lawJSONArg[fn.FullName()]; ok && arg < len(n.Args) {
						p.jsonArgs = append(p.jsonArgs, info.Types[n.Args[arg]].Type)
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		p.used[obj.Pos()] = true
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			p.selected[obj.Pos()] = true
		}
		if obj.Pkg() != nil && obj.Pkg() != pkg {
			p.kept[obj.Pos()] = true
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			p.read[obj.Pos()] = true
		}
	}
}

// lawJSONArg maps each encoding/json entry point that reflects on a value
// to the index of that value among its arguments.
var lawJSONArg = map[string]int{
	"encoding/json.Marshal":           0,
	"encoding/json.MarshalIndent":     0,
	"encoding/json.Unmarshal":         1,
	"(*encoding/json.Encoder).Encode": 0,
	"(*encoding/json.Decoder).Decode": 0,
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
					p.iface[sel.Obj().Pos()] = true
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
// type of another package implements: that package satisfies it by its
// method set without naming it (transport.EdgeUplink is an fl.Syncer).
func (p *lawPass) markImplemented() {
	for _, pkg := range p.pkgs {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			it, ok := obj.Type().Underlying().(*types.Interface)
			if _, export := p.exports[obj.Pos()]; !ok || !export || it.NumMethods() == 0 {
				continue
			}
			for _, tn := range p.named {
				if tn.Pkg() != pkg && !types.IsInterface(tn.Type()) && types.Implements(types.NewPointer(tn.Type()), it) {
					p.kept[obj.Pos()] = true
					break
				}
			}
		}
	}
}

// lawNamed returns the non-generic defined types among defs.
func lawNamed(defs map[*ast.Ident]types.Object) []*types.TypeName {
	var named []*types.TypeName
	for _, obj := range defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, tn)
			}
		}
	}
	return named
}

// assert keeps every method the interface a type assertion or a type
// switch case names declares: there the method marks a capability the value
// may have, and no call has to reach it.
func (p *lawPass) assert(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumExplicitMethods(); i++ {
			p.needed[it.ExplicitMethod(i).Pos()] = true
		}
	}
}

// markInterfaceNeeds applies the interface law to the interfaces under
// internal/ among named. Each non-interface type among named that
// implements one is counted as its implementer, and a method the interface
// declares is needed if non-test code selects it through the interface, an
// interface embedding it, or an implementing type.
func (p *lawPass) markInterfaceNeeds(named []*types.TypeName) {
	for _, in := range named {
		if !p.decls[in.Pos()].iface {
			continue
		}
		it := in.Type().Underlying().(*types.Interface)
		for i := 0; i < it.NumExplicitMethods(); i++ {
			if m := it.ExplicitMethod(i); p.selected[m.Pos()] {
				p.needed[m.Pos()] = true
			}
		}
		for _, tn := range named {
			ptr := types.NewPointer(tn.Type())
			if types.IsInterface(tn.Type()) || !types.Implements(ptr, it) {
				continue
			}
			if p.impls[in.Pos()] == nil {
				p.impls[in.Pos()] = map[token.Pos]bool{}
			}
			p.impls[in.Pos()][tn.Pos()] = true
			mset := types.NewMethodSet(ptr)
			for i := 0; i < it.NumExplicitMethods(); i++ {
				m := it.ExplicitMethod(i)
				if p.selected[mset.Lookup(m.Pkg(), m.Name()).Obj().Pos()] {
					p.needed[m.Pos()] = true
				}
			}
		}
	}
}

// markTestFakes type-checks each package under internal/ together with its
// own _test.go files (not an external _test package's) and counts the
// types those files declare toward the implementers of the package's
// interfaces: a fake a test substitutes is a second implementation.
func (p *lawPass) markTestFakes(paths []string) error {
	for _, ip := range paths {
		if !strings.HasPrefix(ip, p.module+"/internal/") {
			continue
		}
		bp, err := p.ctx.ImportDir(p.dirs[ip], 0)
		if err != nil {
			return err
		}
		if len(bp.TestGoFiles) == 0 {
			continue
		}
		files, err := p.parse(bp.Dir, append(bp.GoFiles, bp.TestGoFiles...))
		if err != nil {
			return err
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: p, Sizes: types.SizesFor("gc", p.ctx.GOARCH)}
		if _, err := conf.Check(ip, p.fset, files, info); err != nil {
			return err
		}
		p.markInterfaceNeeds(lawNamed(info.Defs))
	}
	return nil
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

// markOpaque marks the fields that code the type-checker cannot see reads.
// encoding/json reads the exported fields of every struct type a json call
// reaches: through the call's static argument type, with pointers, slices,
// maps and arrays unwrapped; through every module type that implements an
// interface or type-parameter argument; and on through exported and
// embedded field types, except a field tagged json:"-". Assembly reads
// every field of a struct type a body-less func's signature names, and a map
// hashes and compares every field of its key type: those count as used, too.
func (p *lawPass) markOpaque() {
	seen := map[types.Type]bool{}
	var walk func(t types.Type, all bool)
	walk = func(t types.Type, all bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t), all)
		case *types.Named:
			walk(t.Underlying(), all)
		case *types.TypeParam:
			walk(t.Constraint().Underlying(), all)
		case *types.Interface:
			for _, tn := range p.named {
				if !types.IsInterface(tn.Type()) && types.Implements(types.NewPointer(tn.Type()), t) {
					walk(tn.Type(), all)
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				f := t.Field(i)
				if all || (f.Exported() || f.Embedded()) && reflect.StructTag(t.Tag(i)).Get("json") != "-" {
					p.opaque[f.Pos()] = true
					walk(f.Type(), all)
				}
			}
		case *types.Pointer, *types.Slice, *types.Array, *types.Map, *types.Signature, *types.Tuple:
			for _, u := range lawParts(t) {
				walk(u, all)
			}
		}
	}
	for _, t := range p.jsonArgs {
		walk(t, false)
	}
	clear(seen)
	for _, t := range p.asmArgs {
		walk(t, true)
	}
	var key func(t types.Type)
	key = func(t types.Type) {
		switch t := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				p.used[t.Field(i).Pos()] = true
				p.read[t.Field(i).Pos()] = true
				key(t.Field(i).Type())
			}
		case *types.Array:
			key(t.Elem())
		}
	}
	for _, info := range p.infos {
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				key(m.Key())
			}
		}
	}
}
