package bulkpim

// The test-only-export scan: an exported function or method under
// internal/ that no production file names is code only the tests use.
// Each such survivor must be listed in testOnlyExports with the reason
// it stays; anything else is moved into an export_test.go or deleted.
// Run with -v to print the survivors.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal functions and methods
// that only tests call, by package-relative name, each with the reason
// it stays in production code.
var testOnlyExports = map[string]string{
	"cache.L1.HasLine":  "line-presence probe of the internal/system tests; export_test.go cannot reach another package",
	"cache.LLC.HasLine": "line-presence probe of the internal/system tests; export_test.go cannot reach another package",

	"core.Model.EntryGate":             "the §V-C/D entry-gate policy per model, pinned by the core model tests",
	"core.Model.GuaranteesCorrectness": "the Table I correctness split per model, pinned by the core model tests",
	"core.SBV.Test":                    "SBV bit probe of the root package's SBV benchmark",

	"mem.Backing.ReadWord": "word read of the memctrl, pim and pimdb tests",

	"sim.Kernel.Pending":  "the property tests step the kernel and check its queue",
	"sim.Kernel.RunUntil": "the cache, noc, pim and sim property tests step the kernel with RunUntil/Stop",

	"stats.Ratio.Total": "lookup count read by the cache and stats tests",

	"trace.Tracer.Recent": "trace-ring read of the internal/system trace test",

	"workload/litmus.RunMPPlain":          "ROADMAP item 4: seed corpus of the generated litmus tests",
	"workload/litmus.RunMessagePassing":   "ROADMAP item 4: seed corpus of the generated litmus tests",
	"workload/litmus.SweepCrossScope":     "ROADMAP item 4: seed corpus of the generated litmus tests",
	"workload/litmus.SweepStoreBuffering": "ROADMAP item 4: seed corpus of the generated litmus tests",

	"pim.AddFieldsMicroOps":            "ROADMAP item 6 decides the executed PIM arithmetic",
	"pim.MulFieldsMicroOps":            "ROADMAP item 6 decides the executed PIM arithmetic",
	"pim.ArrayImage.AddConst":          "ROADMAP item 6 decides the executed PIM arithmetic",
	"pim.ArrayImage.AddFields":         "ROADMAP item 6 decides the executed PIM arithmetic",
	"pim.ArrayImage.MulFields":         "ROADMAP item 6 decides the executed PIM arithmetic",
	"pimdb.Layout.CompileCount":        "ROADMAP item 6: the in-PIM COUNT aggregate of executed TPC-H aggregation",
	"pimdb.TotalMicroOps":              "ROADMAP item 6: latency of compiled aggregation sequences",
	"pimdb.Layout.DecodeFieldBE":       "inverse of EncodeFieldBE, read back by the pimdb tests",
	"pimdb.Layout.DecodeKey":           "inverse of the record-key encoding, read back by the pimdb and ycsb tests",
	"pim.ArrayImage.Bit":               "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.SetBit":            "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.SetRow":            "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.SetFieldBE":        "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.ColCopy":           "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.ColNot":            "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.ColSet":            "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.RowOp":             "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
	"pim.ArrayImage.TransposeColToRow": "MAGIC engine primitive of the pim engine tests; ROADMAP item 6 programs the engine",
}

// scanTestOnlyExports parses every non-test Go file under root and
// returns the exported functions and methods declared under internal/
// whose name no non-test file mentions outside its own declaration.
// Matching is by name, so a method counts as called whenever any
// production code calls a method or function of the same name.
func scanTestOnlyExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	declared := map[string]string{} // qualified name -> bare name
	mentioned := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/")
		names := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if internal && fd.Name.IsExported() {
				declared[pkg+"."+qualifiedFunc(fd)] = fd.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				mentioned[id.Name] = true
			}
			return true
		})
		return nil
	})
	var out []string
	for q, name := range declared {
		if !mentioned[name] {
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out, err
}

// qualifiedFunc names a function "F" and a method "T.M".
func qualifiedFunc(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
			continue
		case *ast.IndexExpr:
			typ = t.X
			continue
		case *ast.IndexListExpr:
			typ = t.X
			continue
		case *ast.Ident:
			return t.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
}

// TestTestOnlyExports fails on an exported internal function that only
// tests call and the allowlist does not justify, and on an allowlisted
// name that has gained a production caller.
func TestTestOnlyExports(t *testing.T) {
	survivors, err := scanTestOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, q := range survivors {
		found[q] = true
		reason, ok := testOnlyExports[q]
		if !ok {
			t.Errorf("%s: exported, but only tests call it; move it to an export_test.go, delete it, or justify it in testOnlyExports", q)
			continue
		}
		t.Logf("survivor: %s — %s", q, reason)
	}
	for q := range testOnlyExports {
		if !found[q] {
			t.Errorf("%s: listed in testOnlyExports but production code now calls it (or it is gone); drop the entry", q)
		}
	}
	t.Logf("%d test-only exports, all justified", len(survivors))
}
