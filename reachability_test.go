package dbcatcher

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names production code that no root reaches but that stays
// because tests of reached code use it as a reference, an oracle, a pin or
// a shared assertion helper, each with its reason. What only an entry
// reaches stays with it. Keys are "<package dir>.<Name>" or
// "<package dir>.<Type>.<Method>".
var reachAllowlist = map[string]string{
	"internal/correlate.DefaultOptions":          "the paper's setting, an uncapped n/2 delay scan: TestEngineMatchesOracle, FuzzKCD and the KCD tests run it",
	"internal/detect.CachedProvider.Len":         "TestCachedProviderCapHolds and TestCachedProviderDefaultCap read the cache bound through it",
	"internal/incident.Aggregator.Fingerprint":   "the pins compare it: TestKillPrimaryPromoteFleetIncidentsBitIdentical, TestIncidentWALRehydration, TestRestoreMatchesUninterrupted, FuzzRestore",
	"internal/incident.Aggregator.Flush":         "end-of-stream close that TestHistoryRingsStayBounded and rootcause's buildClusterReport use to close open clusters",
	"internal/mathx.Autocorrelation":             "the oracle of TestTencentPeriodicIsMorePeriodic (the workload generator's periodicity)",
	"internal/mathx.EqualApprox":                 "assertion helper shared by the mathx, timeseries, correlate and cluster tests",
	"internal/metrics.Confusion.Total":           "the baselines' end-to-end tests assert through it that every method scored windows",
	"internal/monitor.Processor.WindowWithStats": "the reference read of TestOnlineReusedWindowMatchesFresh",
	"internal/replicate.Guard.Status":            "the fencing guard tests read the guard's state through it",
	"internal/store.Recovered.RelearnEvents":     "TestRelearnRecordRoundTrip, TestPersisterSanitizesRelearnScores and TestPromotionSurvivesCrashRecovery read the journaled relearn records through it",
	"internal/timeseries.FromValues":             "fixture constructor of TestWindow and TestSlice",
	"internal/timeseries.Ring.GapCount":          "TestRingGapMarking, TestRingGapEvictionAccounting and TestRingEmpty check the ring's gap accounting through it",
}

// stdlibAssertedMethods are the method names that fmt, errors and
// encoding/json find by a type assertion on an interface{} or error value,
// so no signature the walk sees names them.
var stdlibAssertedMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

const modulePath = "dbcatcher"

// TestProductionCodeIsReachable fails for every production function, method
// or package-level type that nothing the repository runs can reach. The
// roots are main and init of every program under cmd/, examples/ and
// e2ebench/, the exported API declared in this package, and the
// package-level initializers of every linked package. Reached code reaches
// what it refers to; a method is also reached when its receiver type is
// reached and reached code calls a method of that name through an
// interface, or the standard library may (an interface in a signature it
// is handed, or stdlibAssertedMethods). Entries on reachAllowlist that are
// reached, or no longer exist, fail too.
func TestProductionCodeIsReachable(t *testing.T) {
	r := newReach(loadRepo(t))
	r.roots()
	r.flood()
	decls := r.checked()
	byName := map[string]checkedDecl{}
	reachedByRoots := map[string]bool{}
	for _, d := range decls {
		byName[d.name] = d
		reachedByRoots[d.name] = r.live[d.obj]
	}
	// Allowlisted code stays, and so does everything only it reaches.
	for name := range reachAllowlist {
		if d, ok := byName[name]; ok {
			r.mark(d.obj)
		}
	}
	r.flood()

	var unreached []string
	for _, d := range decls {
		if !r.live[d.obj] {
			unreached = append(unreached, fmt.Sprintf("%s %s", d.pos, d.name))
		}
	}
	if len(unreached) > 0 {
		t.Errorf("%d production declarations are reached by no root; delete them, or allowlist one that a test of reached code needs:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
	var stale []string
	for name := range reachAllowlist {
		if _, ok := byName[name]; !ok || reachedByRoots[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allowlisted %s is reached or no longer exists; drop it from reachAllowlist", name)
	}
}

// configAllowlist names fields of config types that no root sets but that
// stay, each with its reason: the test that needs another value to reach a
// behaviour or to finish in bounded time, or the test seam it is. Keys are
// "<package dir>.<Type>.<Field>".
var configAllowlist = map[string]string{
	"internal/incident.Config.MaxOpen":      "TestEventValidationAndDropCounters reaches the Dropped counter at 2 open incidents, not 4096; FuzzRestore bounds its state at 128",
	"internal/relearn.Config.Drift":         "carries DriftConfig.Lambda, with which supervisor_test.go's testConfig switches the drift trigger off",
	"internal/relearn.Config.Policy":        "testConfig in supervisor_test.go switches the F-Measure trigger off (Criterion -1) and gates attempts at 10 records, so TestFaultInjectionMatrix and the other one-attempt tests drive exactly the attempt they trigger",
	"internal/relearn.Config.Searcher":      "test seam: the supervisor tests inject fakeSearcher (panicking, blocking, regressing, NaN and instant searches)",
	"internal/relearn.DriftConfig.Lambda":   "testConfig in supervisor_test.go sets it out of reach (1e9) so no drift alarm starts a second attempt in TestFaultInjectionMatrix, TestShadowRollbackOnFlipBudget and TestPromotionSurvivesCrashRecovery",
	"internal/replicate.Config.Client":      "test seam: fastCfg in replicate_test.go injects a 300ms-timeout client so hang faults resolve quickly",
	"internal/replicate.Config.MaxChunk":    "TestTailerMirrorsByteIdentical and TestTailerSurvivesInjectedFaults fetch each segment in several 64-byte chunks",
	"internal/replicate.GuardConfig.Client": "test seam: the guard tests inject a 300ms-timeout client",
	"internal/store.Options.RetainSegments": "TestStoreRotationAndCompaction, TestEpochSurvivesCompactionViaSnapshot, TestSlowReaderRetentionBoundaries, TestTailerSnapshotRestartAfterCompaction and TestCrashMatrix compact at other retention counts",
	"internal/store.Options.SegmentBytes":   "rotation within a test's few records needs segments of tens of bytes, not 1 MiB: TestStoreRotationAndCompaction, TestCrashMatrix, TestTailerMirrorsByteIdentical and the other replication tests",
}

// TestConfigFieldsAreSet fails for every field of a config type under
// internal/ that no code the roots of TestProductionCodeIsReachable writes:
// such a field always holds its default, which belongs in a constant where
// it is used. A config type is a struct type with a withDefaults method or
// a name ending in Config or Options. A field is written by a keyed
// composite-literal entry, an assignment, ++ or --, or by taking its
// address; an unkeyed literal writes every field. Writes in the type's own
// withDefaults method fill defaults and do not count. Entries on
// configAllowlist that a root writes, or that no longer exist, fail too.
func TestConfigFieldsAreSet(t *testing.T) {
	l := loadRepo(t)
	r := newReach(l)
	r.roots()
	r.flood()
	fields := configFields(l)
	set := r.fieldWrites(fields)
	owners := map[*types.TypeName]bool{}
	byName := map[string]bool{}
	var unset, stale []string
	for _, f := range fields {
		owners[f.owner] = true
		byName[f.name] = true
		_, listed := configAllowlist[f.name]
		switch {
		case set[f.field] && listed:
			stale = append(stale, f.name)
		case !set[f.field] && !listed:
			unset = append(unset, fmt.Sprintf("%s %s", f.pos, f.name))
		}
	}
	t.Logf("%d fields in %d config types; %d allowlisted", len(fields), len(owners), len(configAllowlist))
	if len(unset) > 0 {
		t.Errorf("%d config fields are set by no root; make each default a constant where it is used, or allowlist a field that a test needs to set:\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
	for name := range configAllowlist {
		if !byName[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allowlisted %s is set by a root or no longer exists; drop it from configAllowlist", name)
	}
}

var (
	repoOnce   sync.Once
	repoLoader *loader
	repoErr    error
)

// loadRepo type-checks the repository's production code once per test
// binary.
func loadRepo(t *testing.T) *loader {
	repoOnce.Do(func() {
		// Type-check the standard library's pure-Go files: with cgo
		// enabled the source importer would run cgo on net and os/user.
		cgo := build.Default.CgoEnabled
		build.Default.CgoEnabled = false
		defer func() { build.Default.CgoEnabled = cgo }()
		l := &loader{fset: token.NewFileSet(), pkgs: map[string]*srcPkg{}}
		l.std = importer.ForCompiler(l.fset, "source", nil)
		repoLoader, repoErr = l, l.loadAll(".")
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoLoader
}

type srcPkg struct {
	path  string
	dir   string // relative to the repository root, slash-separated
	name  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's and e2ebench's production files from
// source, and the standard library through the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*srcPkg
	order []*srcPkg
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

func (l *loader) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// loadAll loads every directory under root that holds production Go files.
func (l *loader) loadAll(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		rel := filepath.ToSlash(path)
		importPath := modulePath
		if rel != "." {
			importPath += "/" + rel
		}
		if _, err := l.load(importPath); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		return nil
	})
}

func (l *loader) load(path string) (*srcPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(filepath.FromSlash(dir), 0)
	if err != nil {
		return nil, err
	}
	p := &srcPkg{path: path, dir: dir, name: bp.Name}
	l.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(filepath.FromSlash(dir), name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.order = append(l.order, p)
	return p, nil
}

// decl is one declaration the walk can reach: a function or method, a
// type spec, or a var/const spec.
type decl struct {
	pkg  *srcPkg
	node ast.Node
}

type reach struct {
	l       *loader
	declOf  map[types.Object]decl
	walked  map[ast.Node]bool
	seen    []decl // every declaration queued, in order
	queue   []decl
	live    map[types.Object]bool
	called  map[string]bool // method names an interface call or the standard library may dispatch
	methods []*types.Func
}

func newReach(l *loader) *reach {
	r := &reach{l: l, declOf: map[types.Object]decl{}, walked: map[ast.Node]bool{},
		live: map[types.Object]bool{}, called: map[string]bool{}}
	for _, name := range stdlibAssertedMethods {
		r.called[name] = true
	}
	for _, p := range l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					r.declOf[fn] = decl{p, d}
					if d.Recv != nil {
						r.methods = append(r.methods, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.declOf[p.info.Defs[s.Name]] = decl{p, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := p.info.Defs[n]; obj != nil {
									r.declOf[obj] = decl{p, s}
								}
							}
						}
					}
				}
			}
		}
	}
	return r
}

// roots queues main and init of the programs, the facade's exported API,
// and every linked package's init functions and var initializers.
func (r *reach) roots() {
	var linked []*srcPkg
	seen := map[*srcPkg]bool{}
	var link func(p *srcPkg)
	link = func(p *srcPkg) {
		if seen[p] {
			return
		}
		seen[p] = true
		linked = append(linked, p)
		for _, imp := range p.types.Imports() {
			if q, ok := r.l.pkgs[imp.Path()]; ok {
				link(q)
			}
		}
	}
	for _, p := range r.l.order {
		if p.path == modulePath || p.name == "main" {
			link(p)
		}
	}
	for _, p := range linked {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv == nil && (name == "init" || name == "main" && p.name == "main") ||
						p.path == modulePath && ast.IsExported(name) {
						r.enqueue(decl{p, d})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if p.path == modulePath && s.Name.IsExported() {
								r.mark(p.info.Defs[s.Name])
							}
						case *ast.ValueSpec:
							exported := false
							for _, n := range s.Names {
								exported = exported || n.IsExported()
							}
							if len(s.Values) > 0 || p.path == modulePath && exported {
								r.enqueue(decl{p, s})
							}
						}
					}
				}
			}
		}
	}
}

func (r *reach) enqueue(d decl) {
	if !r.walked[d.node] {
		r.walked[d.node] = true
		r.seen = append(r.seen, d)
		r.queue = append(r.queue, d)
	}
}

func (r *reach) mark(obj types.Object) {
	if r.live[obj] {
		return
	}
	r.live[obj] = true
	if d, ok := r.declOf[obj]; ok {
		r.enqueue(d)
	}
}

// flood walks everything the marked declarations reach, then marks the
// methods that interface calls may dispatch to, until nothing changes.
func (r *reach) flood() {
	for {
		for len(r.queue) > 0 {
			d := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walk(d)
		}
		grew := false
		for _, m := range r.methods {
			if !r.live[m] && r.called[m.Name()] && r.live[receiverType(m)] {
				r.mark(m)
				grew = true
			}
		}
		if !grew {
			return
		}
	}
}

func receiverType(m *types.Func) types.Object {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func (r *reach) walk(d decl) {
	if fd, ok := d.node.(*ast.FuncDecl); ok {
		r.live[d.pkg.info.Defs[fd.Name]] = true
	}
	ast.Inspect(d.node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := d.pkg.info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			o = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.called[o.Name()] = true
			}
			obj = o
		case *types.Var:
			obj = o.Origin()
		}
		if inModule(obj.Pkg().Path()) {
			r.mark(obj)
		} else {
			r.handedToStdlib(obj.Type(), true)
		}
		return true
	})
}

// handedToStdlib records the methods of every interface through which a
// value of type t may reach the standard library: the parameters of its
// functions, the results of callbacks it runs, and its fields and
// variables. in says whether values of t flow into the standard library.
func (r *reach) handedToStdlib(t types.Type, in bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok && in {
			r.interfaceMethods(iface)
		}
	case *types.Interface:
		if in {
			r.interfaceMethods(t)
		}
	case *types.Pointer:
		r.handedToStdlib(t.Elem(), in)
	case *types.Slice:
		r.handedToStdlib(t.Elem(), in)
	case *types.Array:
		r.handedToStdlib(t.Elem(), in)
	case *types.Chan:
		r.handedToStdlib(t.Elem(), in)
	case *types.Map:
		r.handedToStdlib(t.Key(), in)
		r.handedToStdlib(t.Elem(), in)
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			r.handedToStdlib(t.Params().At(i).Type(), in)
		}
		for i := 0; i < t.Results().Len(); i++ {
			r.handedToStdlib(t.Results().At(i).Type(), !in)
		}
	}
}

func (r *reach) interfaceMethods(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		r.called[iface.Method(i).Name()] = true
	}
}

type checkedDecl struct {
	pos  token.Position
	name string
	obj  types.Object
}

// checked lists every function and method, and every package-level type
// outside the facade, in source order.
func (r *reach) checked() []checkedDecl {
	var out []checkedDecl
	add := func(p *srcPkg, obj types.Object, name string) {
		pos := r.l.fset.Position(obj.Pos())
		pos.Filename = filepath.ToSlash(pos.Filename)
		out = append(out, checkedDecl{pos, p.dir + "." + name, obj})
	}
	for _, p := range r.l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					name := d.Name.Name
					if d.Recv != nil {
						name = receiverType(fn).Name() + "." + name
					}
					add(p, fn, name)
				case *ast.GenDecl:
					if p.path == modulePath {
						continue
					}
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name != "_" {
							add(p, p.info.Defs[ts.Name], ts.Name.Name)
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

type configField struct {
	pos   token.Position
	name  string
	field *types.Var
	owner *types.TypeName
}

// configFields lists the fields of every config type under internal/ in
// source order.
func configFields(l *loader) []configField {
	var out []configField
	for _, p := range l.order {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		defaulted := map[string]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
					defaulted[receiverType(p.info.Defs[fd.Name].(*types.Func)).Name()] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				name := ts.Name.Name
				tn := p.info.Defs[ts.Name].(*types.TypeName)
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok || !defaulted[name] && !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
					return false
				}
				for i := 0; i < st.NumFields(); i++ {
					fv := st.Field(i)
					pos := l.fset.Position(fv.Pos())
					pos.Filename = filepath.ToSlash(pos.Filename)
					out = append(out, configField{pos, p.dir + "." + name + "." + fv.Name(), fv, tn})
				}
				return false
			})
		}
	}
	return out
}

// fieldWrites reports which of fields the walked declarations write,
// leaving out each type's writes in its own withDefaults method.
func (r *reach) fieldWrites(fields []configField) map[*types.Var]bool {
	owner := map[*types.Var]*types.TypeName{}
	for _, f := range fields {
		owner[f.field] = f.owner
	}
	set := map[*types.Var]bool{}
	for _, d := range r.seen {
		var defaults types.Object
		if fd, ok := d.node.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
			defaults = receiverType(d.pkg.info.Defs[fd.Name].(*types.Func))
		}
		info := d.pkg.info
		mark := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok {
				if o, ok := owner[v.Origin()]; ok && o != defaults {
					set[v.Origin()] = true
				}
			}
		}
		write := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				mark(info.Uses[sel.Sel])
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					write(e)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						mark(info.Uses[kv.Key.(*ast.Ident)])
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						mark(st.Field(i))
					}
					break
				}
			}
			return true
		})
	}
	return set
}
