package sparseroute

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
