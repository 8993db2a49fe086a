package sparseroute

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestCodeCounts logs the size of the code base, the numbers simplicity
// changes report: non-test Go lines outside bench/ (in all and per
// package), exported declarations, service.Engine's exported methods and
// fields, service.Config's fields, routed's flags, and expvar sites per
// package. It fails only when the tree does not parse. Run it with
// `go test -run TestCodeCounts -v .`.
func TestCodeCounts(t *testing.T) {
	fset := token.NewFileSet()
	lines := map[string]int{}
	expvarSites := map[string]int{}
	total, exported, engineMethods, engineFields, configFields, flags := 0, 0, 0, 0, 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		n := strings.Count(string(src), "\n")
		lines[dir] += n
		total += n
		exported += exportedDecls(f)
		ast.Inspect(f, func(node ast.Node) bool {
			if sel, ok := node.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "expvar" {
					expvarSites[dir]++
				}
			}
			return true
		})
		switch dir {
		case "internal/service":
			engineMethods += receiverMethods(f, "Engine")
			engineFields += structFields(f, "Engine")
			configFields += structFields(f, "Config")
		case "cmd/routed":
			flags += flagDefinitions(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test Go lines outside bench/: %d", total)
	t.Logf("exported declarations (AST): %d", exported)
	t.Logf("service.Engine: %d exported methods, %d fields; service.Config: %d fields; routed: %d flags",
		engineMethods, engineFields, configFields, flags)
	t.Logf("non-test lines per package:%s", perPackage(lines))
	sites := 0
	for _, n := range expvarSites {
		sites += n
	}
	t.Logf("expvar sites: %d%s", sites, perPackage(expvarSites))
}

// perPackage lists counts by package directory, one per line, sorted.
func perPackage(counts map[string]int) string {
	dirs := make([]string, 0, len(counts))
	for dir := range counts {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var b strings.Builder
	for _, dir := range dirs {
		fmt.Fprintf(&b, "\n  %-28s %6d", dir, counts[dir])
	}
	return b.String()
}

// exportedDecls counts f's exported top-level names: functions, methods,
// types, constants and variables, one per name.
func exportedDecls(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverMethods counts f's exported methods on typ or *typ.
func receiverMethods(f *ast.File, typ string) int {
	n := 0
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !fn.Name.IsExported() {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.Name == typ {
			n++
		}
	}
	return n
}

// structFields counts the fields of struct type typ declared in f, one per
// name.
func structFields(f *ast.File, typ string) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		ts, ok := node.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typ {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				n += max(len(field.Names), 1)
			}
		}
		return false
	})
	return n
}

// flagDefinitions counts the flags f defines: calls of a flag-defining
// function on the flag package or on a flag set made by flag.NewFlagSet.
func flagDefinitions(f *ast.File) int {
	sets := map[string]bool{"flag": true}
	ast.Inspect(f, func(node ast.Node) bool {
		if as, ok := node.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && isCall(as.Rhs[0], "flag", "NewFlagSet") {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				sets[id.Name] = true
			}
		}
		return true
	})
	definers := []string{"Bool", "BoolVar", "BoolFunc", "Duration", "DurationVar", "Float64", "Float64Var",
		"Func", "Int", "IntVar", "Int64", "Int64Var", "String", "StringVar", "TextVar",
		"Uint", "UintVar", "Uint64", "Uint64Var", "Var"}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		for set := range sets {
			for _, name := range definers {
				if isCall(node, set, name) {
					n++
				}
			}
		}
		return true
	})
	return n
}

// isCall reports whether node is a call of x.sel.
func isCall(node ast.Node, x, sel string) bool {
	call, ok := node.(*ast.CallExpr)
	if !ok {
		return false
	}
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == x
}

// exportAllow names the exports of internal/ that stay though no non-test
// file outside their package references them, each with the reason.
var exportAllow = map[string]string{
	"demand.Demand.MaxEntry":       "temodel's tests check a burst by it",
	"demand.Demand.Scale":          "the facade's test re-solves a scaled demand",
	"flow.Routing.TotalFlow":       "rounding's and serial's tests check that flow is kept",
	"gen.Complete":                 "core's tests build complete graphs with it",
	"gen.ErdosRenyi":               "mcf's tests solve on random graphs from it",
	"graph.Graph.Degree":           "gen's tests check the degrees of generated graphs",
	"graph.Graph.ShortestPathHops": "the tests of core, gen, schedule, serial and the facade build paths with it",
	"lp.GE":                        "completes the Relation enum with LE and EQ; the solver handles it",
	"obs.ValidateExposition":       "the service, fleet and routed tests (CI's observability step) check every exposition with it",
	"service.Engine.LastSubmitted": "fleet's recovery tests compare the replayed demand by it",
	"service.ErrRateLimited":       "fleet's quota test matches a shed by it",
	"service.ShedError":            "fleet's quota test reads the retry hint from it",
	"wal.AppendFrame":              "service's replay tests frame doctored records with it",
	"wal.ErrInjected":              "service's fault drills match the injected failure by it",
	"wal.MaxRecord":                "service's replay tests bound payloads by it",
	"wal.NewFaultWriter":           "service's fault drills inject write and sync failures with it",
}

// TestExportsHaveCallers fails, naming pkg.Name, for each exported
// top-level function, type, constant, variable or method in internal/ that
// no non-test file outside its package references, and for each stale
// exportAllow entry. Every file under bench/ counts as a caller.
func TestExportsHaveCallers(t *testing.T) {
	srcs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			src, err := os.ReadFile(path)
			srcs[filepath.ToSlash(path)] = string(src)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := exportsWithoutCallers("sparseroute", srcs, exportAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportsHaveCallersRule runs the rule over a fixture tree: what it
// flags, the callers and interfaces that keep an export, and stale
// allow-list entries.
func TestExportsHaveCallersRule(t *testing.T) {
	tree := map[string]string{
		"internal/a/a.go": `package a

type Shape struct{}

type Opts struct{ N int }

type unexported struct{}

func New(o Opts) *Shape       { return &Shape{} }
func (*Shape) Area() float64  { return 1 }
func (*Shape) Scale()         {}
func (*Shape) Perimeter() int { return 4 }
func (unexported) Hidden()    {}
func Dead()                   {}
func Self()                   {}
func OnlyTests()              {}
func BenchMain()              {}
func BenchTest()              {}
func Helper()                 {}
func Used()                   {}

func use() { Self() }
`,
		"internal/a/a_test.go": "package a\n\nfunc init() { Dead(); OnlyTests() }\n",
		"internal/b/b_test.go": "package b\n\nimport \"m/internal/a\"\n\nfunc init() { a.OnlyTests() }\n",
		"internal/c/c.go":      "package c\n\ntype T struct{}\n\nfunc (T) Perimeter() {}\n",
		"cmd/x/main.go": `package main

import "m/internal/a"

type areaer interface{ Area() float64 }

func main() {
	var s areaer = a.New(a.Opts{})
	_ = s
	a.Used()
}
`,
		// y selects Scale on its own type and depends on c, not on a.
		"cmd/y/main.go":       "package main\n\nimport \"m/internal/c\"\n\ntype scaler struct{}\n\nfunc (scaler) Scale() {}\n\nfunc main() { var t c.T; _ = t; scaler{}.Scale() }\n",
		"bench/main.go":       "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.BenchMain() }\n",
		"bench/bench_test.go": "package main\n\nimport \"m/internal/a\"\n\nfunc init() { a.BenchTest() }\n",
	}
	dead := []string{"a.Dead", "a.OnlyTests", "a.Self", "a.Shape.Perimeter", "a.Shape.Scale", "a.unexported.Hidden", "c.T.Perimeter"}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"dead exports", map[string]string{"a.Helper": "fixture"}, dead},
		{"stale allow entries", map[string]string{"a.Helper": "fixture", "a.Used": "fixture", "a.Gone": "fixture"}, append([]string{
			"allow-list entry a.Gone is stale: no such export",
			"allow-list entry a.Used is stale: it has a caller",
		}, dead...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := exportsWithoutCallers("m", tree, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range got {
				got[i] = strings.TrimSuffix(p, ": no non-test file outside its package references it")
			}
			want := slices.Clone(tc.want)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("got  %q\nwant %q", got, want)
			}
		})
	}
}

// interfaceMethods are the standard-library interface methods that the
// tree's types implement; a method of that name counts as used.
var interfaceMethods = []string{"Error", "String", "Unwrap", "ServeHTTP"}

// export is one exported top-level name of an internal/ package.
type export struct {
	key    string     // pkg.Name, or pkg.Recv.Name for a method
	dir    string     // the package directory
	method string     // the method name; empty if not a method
	typ    bool       // a type declaration
	names  []ast.Node // signatures and fields whose named types live with it
}

// exportsWithoutCallers parses srcs, Go sources keyed by slash-separated
// path relative to the root of module, and returns one line for each
// export of internal/ without a caller and each stale allow entry.
//
// A reference is a selector pkg.Name in a non-test file outside the
// export's package, or in any file under bench/. A method counts as used
// when its name is in the method set of an interface declared in a non-test
// file or in interfaceMethods, or when such a file selects its name in a
// package that depends on the method's package: only there can a value of
// its type be. A type counts as used when it is named in the signature of a
// used function or method, the type or value of a used variable or
// constant, or an exported field or method of a used type. An allow entry is
// stale when it names no export, or one that counts as used without it.
func exportsWithoutCallers(module string, srcs map[string]string, allow map[string]string) ([]string, error) {
	type file struct {
		dir  string
		test bool
		f    *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgName := map[string]string{} // dir → package name
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir, test := pathpkg.Dir(path), strings.HasSuffix(path, "_test.go")
		files = append(files, file{dir, test, f})
		if !test {
			pkgName[dir] = f.Name.Name
		}
	}

	exports := map[string]*export{} // dir + "." + Name or Recv.Name → export
	interfaceNames := map[string]bool{}
	for _, name := range interfaceMethods {
		interfaceNames[name] = true
	}
	for _, fl := range files {
		if fl.test {
			continue
		}
		ast.Inspect(fl.f, func(node ast.Node) bool {
			if it, ok := node.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						interfaceNames[name.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		add := func(name, method string, typ bool, names ...ast.Node) {
			e := &export{key: fl.f.Name.Name + "." + name, dir: fl.dir, method: method, typ: typ}
			for _, n := range names {
				if n != nil {
					e.names = append(e.names, n)
				}
			}
			exports[fl.dir+"."+name] = e
		}
		for _, decl := range fl.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					add(d.Name.Name, "", false, d.Type)
				default:
					add(receiverName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, false, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name.Name, "", true, exportedParts(s.Type)...)
						}
					case *ast.ValueSpec:
						names := []ast.Node{s.Type}
						for _, v := range s.Values {
							names = append(names, v)
						}
						for _, name := range s.Names {
							if name.IsExported() {
								add(name.Name, "", false, names...)
							}
						}
					}
				}
			}
		}
	}

	// Roots: selected from outside the package, or an interface method.
	used := map[*export]bool{}
	selected := map[string]map[string]bool{} // selector name → dirs selecting it
	imports := map[string]map[string]bool{}  // dir → dirs it imports
	for _, fl := range files {
		if fl.test && !strings.HasPrefix(fl.dir+"/", "bench/") {
			continue
		}
		if imports[fl.dir] == nil {
			imports[fl.dir] = map[string]bool{}
		}
		aliases := map[string]string{} // import name → package dir
		for _, imp := range fl.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(path, module+"/")
			if path == module {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			aliases[name] = dir
			imports[fl.dir][dir] = true
		}
		ast.Inspect(fl.f, func(node ast.Node) bool {
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && aliases[x.Name] != "" {
				if e := exports[aliases[x.Name]+"."+sel.Sel.Name]; e != nil && e.dir != fl.dir {
					used[e] = true
				}
				return true
			}
			if selected[sel.Sel.Name] == nil {
				selected[sel.Sel.Name] = map[string]bool{}
			}
			selected[sel.Sel.Name][fl.dir] = true
			return true
		})
	}
	var dependsOn func(dir, on string, seen map[string]bool) bool
	dependsOn = func(dir, on string, seen map[string]bool) bool {
		seen[dir] = true
		for imp := range imports[dir] {
			if imp == on || !seen[imp] && dependsOn(imp, on, seen) {
				return true
			}
		}
		return false
	}
	for _, e := range exports {
		if e.method == "" {
			continue
		}
		used[e] = interfaceNames[e.method]
		for from := range selected[e.method] {
			used[e] = used[e] || from != e.dir && dependsOn(from, e.dir, map[string]bool{})
		}
	}

	// liveFrom closes a root set over the types that live exports name.
	liveFrom := func(roots map[*export]bool) map[*export]bool {
		live := map[*export]bool{}
		var queue []*export
		for e, ok := range roots {
			if ok {
				live[e] = true
				queue = append(queue, e)
			}
		}
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			for _, n := range e.names {
				ast.Inspect(n, func(node ast.Node) bool {
					switch x := node.(type) {
					case *ast.SelectorExpr:
						return false // another package's name
					case *ast.Ident:
						if t := exports[e.dir+"."+x.Name]; t != nil && t.typ && !live[t] {
							live[t] = true
							queue = append(queue, t)
						}
					}
					return true
				})
			}
		}
		return live
	}

	var problems []string
	byKey := map[string]*export{}
	for _, e := range exports {
		byKey[e.key] = e
	}
	alive := liveFrom(used)
	for key := range allow {
		switch e := byKey[key]; {
		case e == nil:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: no such export", key))
		case alive[e]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: it has a caller", key))
		default:
			used[e] = true
		}
	}
	alive = liveFrom(used)
	for _, e := range exports {
		if !alive[e] {
			problems = append(problems, e.key+": no non-test file outside its package references it")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// receiverName returns the type name of a method receiver.
func receiverName(recv ast.Expr) string {
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		case *ast.Ident:
			return r.Name
		default:
			return ""
		}
	}
}

// exportedParts returns the parts of a type's definition a caller can
// name: the exported fields of a struct, the exported methods of an
// interface, and the whole of any other type.
func exportedParts(typ ast.Expr) []ast.Node {
	var fields *ast.FieldList
	switch t := typ.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return []ast.Node{typ}
	}
	var parts []ast.Node
	for _, f := range fields.List {
		if len(f.Names) == 0 || slices.ContainsFunc(f.Names, (*ast.Ident).IsExported) {
			parts = append(parts, f.Type)
		}
	}
	return parts
}
