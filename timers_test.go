package iotsec_test

import (
	"go/ast"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"testing"
	"testing/fstest"
)

// This file keeps time.After out of production code. Both go.mod files
// declare go 1.22, so the pre-1.23 timer rules apply: a timer that has
// not fired stays reachable until it fires, and a select that returns
// early through another case leaves its time.After timer pinned for
// the whole timeout. Production waits use time.NewTimer and Stop (or
// Reset inside a retry loop) instead.

// TestNoTimeAfterInProduction fails on any time.After call in a
// non-test file of the root module.
func TestNoTimeAfterInProduction(t *testing.T) {
	calls, err := timeAfterCalls(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		t.Errorf("%s: time.After keeps its timer until it fires; use time.NewTimer and Stop", c)
	}
}

// TestTimeAfterCheckerCatchesPlantedCases shows the checker reporting a
// planted call, under the package's own name and under an alias, and
// passing over test files, nested modules and other packages' After.
func TestTimeAfterCheckerCatchesPlantedCases(t *testing.T) {
	files := map[string]string{
		"go.mod":           "module m\n",
		"a/wait.go":        "package a\n\nimport \"time\"\n\nfunc Wait(c chan int) {\n\tselect {\n\tcase <-c:\n\tcase <-time.After(time.Second):\n\t}\n}\n",
		"a/alias.go":       "package a\n\nimport t \"time\"\n\nvar _ = t.After(t.Second)\n",
		"a/ok.go":          "package a\n\nimport \"time\"\n\nfunc Stop() { tm := time.NewTimer(time.Second); tm.Stop() }\n",
		"a/other.go":       "package a\n\ntype clock struct{}\n\nfunc (clock) After(int) {}\n\nvar time clock\n\nfunc Tick() { time.After(1) }\n",
		"a/wait_test.go":   "package a\n\nimport \"time\"\n\nvar _ = time.After(time.Second)\n",
		"nested/go.mod":    "module n\n",
		"nested/n/wait.go": "package n\n\nimport \"time\"\n\nvar _ = time.After(time.Second)\n",
		"cmd/x/main.go":    "package main\n\nimport \"time\"\n\nfunc main() { <-time.After(time.Millisecond) }\n",
	}
	fsys := fstest.MapFS{}
	for name, src := range files {
		fsys[name] = &fstest.MapFile{Data: []byte(src)}
	}
	got, err := timeAfterCalls(fsys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/alias.go:5", "a/wait.go:8", "cmd/x/main.go:5"}
	if len(got) != len(want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reported %v, want %v", got, want)
		}
	}
}

// timeAfterCalls lists, as "file:line", every call of the standard
// library's time.After in the non-test files of the root module in
// fsys. A call counts when its receiver is the name the file imports
// "time" under.
func timeAfterCalls(fsys fs.FS) ([]string, error) {
	tr, err := parseTree(fsys)
	if err != nil {
		return nil, err
	}
	var calls []string
	for _, sf := range tr.files {
		if sf.test || !sf.rootMod {
			continue
		}
		timeName := ""
		for _, im := range sf.f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "time" {
				timeName = "time"
				if im.Name != nil {
					timeName = im.Name.Name
				}
			}
		}
		if timeName == "" {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "After" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
				pos := tr.fset.Position(call.Pos())
				calls = append(calls, pos.Filename+":"+strconv.Itoa(pos.Line))
			}
			return true
		})
	}
	sort.Strings(calls)
	return calls, nil
}
