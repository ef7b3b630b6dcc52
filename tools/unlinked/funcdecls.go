//go:build ignore

// Funcdecls prints the linker symbol of every function and method
// declared in the non-test Go files under a directory, one per line,
// sorted: the declared half of `make unlinked`, which compares it with
// the symbols the product binaries link. A generic function (mc.take,
// exp.sizeCount, report.appendString) is printed under its declared
// name, which the Makefile matches by cutting the [...] suffix off its
// instantiations' symbols. Methods of generic types are not handled:
// internal/ declares none.
//
//	go run tools/unlinked/funcdecls.go <module path> <dir>
package main

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
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run funcdecls.go <module path> <dir>")
		os.Exit(2)
	}
	module, root := os.Args[1], os.Args[2]
	var syms []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recv(fd.Recv.List[0].Type) + "." + name
			}
			syms = append(syms, pkg+"."+name)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sort.Strings(syms)
	for _, s := range syms {
		fmt.Println(s)
	}
}

// recv spells a receiver type the way the linker names its methods:
// T, or (*T) for a pointer receiver.
func recv(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return "(*" + recv(x.X) + ")"
	case *ast.Ident:
		return x.Name
	}
	panic(fmt.Sprintf("unexpected receiver type %T", t))
}
