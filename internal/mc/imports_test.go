package mc

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineImportsOnlyStats pins the engine's import boundary: no
// non-test file of this package imports an mpsram package other than
// stats. Trials live beside their models (analytic.TdpTrial,
// sram.ColumnBuilder.TrialFunc) and exp pairs them with the engine, so a
// model import here would put the extraction and SPICE stack back under
// the engine.
func TestEngineImportsOnlyStats(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if (path == "mpsram" || strings.HasPrefix(path, "mpsram/")) && path != "mpsram/internal/stats" {
				t.Errorf("%s imports %s: the engine may import only mpsram/internal/stats", name, path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no non-test files parsed")
	}
}
