package iotsec_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests checks that every -run, -bench and -skip
// alternative in the CI workflow still names at least one test or
// benchmark in the packages its `go test` line lists, so deleting or
// renaming a test cannot leave a CI step silently running nothing.
func TestCIPatternsMatchTests(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(src), "\n") {
		for _, cmd := range strings.Split(line, "go test ")[1:] {
			inv := parseGoTest(cmd)
			if len(inv.patterns) == 0 {
				continue
			}
			tests, benches := testNames(t, inv.pkgs)
			for _, p := range inv.patterns {
				names := tests
				if p.flag == "-bench" {
					names = benches
				}
				for _, alt := range splitTopLevel(p.value, '|') {
					first := splitTopLevel(alt, '/')[0]
					re, err := regexp.Compile(first)
					if err != nil {
						t.Errorf("%s %q: %v", p.flag, alt, err)
						continue
					}
					checked++
					if !anyMatch(re, names) {
						t.Errorf("%s alternative %q matches no function in %v", p.flag, alt, inv.pkgs)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run/-bench/-skip patterns in ci.yml")
	}
	t.Logf("%d pattern alternatives checked", checked)
}

type ciPattern struct{ flag, value string }

type goTestInvocation struct {
	pkgs     []string
	patterns []ciPattern
}

// parseGoTest reads the arguments that follow "go test " on one line,
// up to the end of that command (&&, a redirection or a pipe).
func parseGoTest(cmd string) goTestInvocation {
	var inv goTestInvocation
	args := shellFields(cmd)
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "&&" || a == "||" || a == "|" || a == ";" || strings.HasPrefix(a, ">") {
			break
		}
		flag, value, inline := strings.Cut(a, "=")
		switch flag {
		case "-run", "-bench", "-skip":
			if !inline && i+1 < len(args) {
				i++
				value = args[i]
			}
			if value != "NONE" {
				inv.patterns = append(inv.patterns, ciPattern{flag, value})
			}
		case "-C":
			return goTestInvocation{} // another module; its tests are its own
		default:
			if a == "." || strings.HasPrefix(a, "./") {
				inv.pkgs = append(inv.pkgs, strings.TrimRight(a, ")"))
			}
		}
	}
	return inv
}

// shellFields splits a command line on blanks outside single or double
// quotes, dropping the quotes.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	inField := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inField = r, true
		case r == ' ' || r == '\t':
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// splitTopLevel splits s on sep outside parentheses and brackets, the
// way `go test` splits a pattern into alternatives and levels.
func splitTopLevel(s string, sep rune) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// testNames lists the Test* and Benchmark* functions declared in the
// _test.go files of the given package patterns ("./x/..." recurses).
func testNames(t *testing.T, pkgs []string) (tests, benches []string) {
	t.Helper()
	fset := token.NewFileSet()
	addDir := func(dir string) {
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				switch n := fd.Name.Name; {
				case strings.HasPrefix(n, "Test"):
					tests = append(tests, n)
				case strings.HasPrefix(n, "Benchmark"):
					benches = append(benches, n)
				}
			}
		}
	}
	for _, p := range pkgs {
		if root, ok := strings.CutSuffix(p, "/..."); ok {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err == nil && d.IsDir() {
					addDir(path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		addDir(p)
	}
	return tests, benches
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
