package iotsec_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// This file keeps the exported API to what production code uses: an
// exported name, or a field of an *Options struct, that only tests
// reach is deleted, unexported, moved into a _test.go file, or named
// on apiAllowlist with the reason it must stay exported.

// allowKind is the one reason an allowlisted name may lack a
// non-test caller.
type allowKind int

const (
	// satisfiesInterface: the method satisfies an interface the check
	// cannot see by name.
	satisfiesInterface allowKind = iota + 1
	// crossPackageFixture: tests in other packages use it, so it
	// cannot move into a _test.go file of its own package.
	crossPackageFixture
	// testSeam: it lets a test substitute a fake or isolate a
	// dependency (a clock, a registry, a journal).
	testSeam
	// libraryEmulator: the emulator for a learn.StandardLibrary class,
	// driven by the model-vs-wire test.
	libraryEmulator
)

type allowed struct {
	kind allowKind
	why  string
}

// apiAllowlist names, by "<dir>.<Name>", "<dir>.<Type>.<Method>" or
// "<dir>.<Options>.<Field>", what may stay exported with no non-test
// caller or setter.
var apiAllowlist = map[string]allowed{
	"internal/controller.Supervisor.Checkpoints":    {crossPackageFixture, "core's failover test reads the latest checkpoint through it"},
	"internal/controller.SupervisorOptions.Journal": {testSeam, "tests give the supervisor a private journal instead of journal.Default"},

	"internal/device.NewLightSensor": {libraryEmulator, "emulates the light-sensor class"},
	"internal/device.NewSmartBulb":   {libraryEmulator, "emulates the bulb class"},
	"internal/device.NewSmartLock":   {libraryEmulator, "emulates the lock class"},
	"internal/device.NewSmartOven":   {libraryEmulator, "emulates the oven class"},

	"internal/ids.Profile.EndTraining": {crossPackageFixture, "mbox's anomaly-element test closes a profile's training window"},

	"internal/learn.GenerateRule":          {crossPackageFixture, "core's distill test turns a capture into a signature with it"},
	"internal/learn.MgmtPayloadsExcluding": {crossPackageFixture, "core's distill test takes the benign side of a capture with it"},
	"internal/learn.MgmtPayloadsFrom":      {crossPackageFixture, "core's distill test takes the attacker's side of a capture with it"},

	"internal/mbox.Pipeline.Instrument": {crossPackageFixture, "the root telemetry-overhead benchmark turns pipeline telemetry off with it"},

	"internal/netsim.ConnectAgent":               {crossPackageFixture, "core, controller and slo tests connect a switch agent synchronously"},
	"internal/netsim.NewRecorder":                {crossPackageFixture, "learn and core tests capture a fabric's frames with it"},
	"internal/netsim.Port.Peer":                  {crossPackageFixture, "mbox tests reach the far end of a wire"},
	"internal/netsim.Switch.AttachPort":          {crossPackageFixture, "core's profile test wires a rogue host by hand"},
	"internal/netsim.SwitchAgent.BufferedEvents": {crossPackageFixture, "core's never-punts test reads the agent's degradation ring"},
	"internal/netsim.SwitchAgent.Connected":      {crossPackageFixture, "controller chaos and core southbound tests wait on the session"},

	"internal/openflow.ControllerEndpoint.SendPacketOut": {crossPackageFixture, "netsim's agent integration test drives a PACKET_OUT"},
	"internal/openflow.SetEthDst":                        {crossPackageFixture, "netsim's switch tests build rewrite entries"},
	"internal/openflow.SetEthSrc":                        {crossPackageFixture, "netsim's switch tests build rewrite entries"},
	"internal/openflow.ToController":                     {crossPackageFixture, "netsim's agent tests install a punt-to-controller entry"},

	"internal/resilience.BackoffOptions.Seed":   {testSeam, "tests pin the jitter sequence"},
	"internal/resilience.FakeClock.Advance":     {crossPackageFixture, "tests across packages step a frozen clock"},
	"internal/resilience.NewFakeClock":          {crossPackageFixture, "tests across packages freeze time"},
	"internal/resilience.NewFaultPlan":          {crossPackageFixture, "controller, core and sigrepo chaos tests inject faults"},
	"internal/resilience.FaultPlan.SetKillRate": {crossPackageFixture, "controller, core and sigrepo chaos tests kill connections"},
	"internal/resilience.FaultPlan.SetLatency":  {crossPackageFixture, "controller's chaos test slows connections"},
	"internal/resilience.WrapConn":              {crossPackageFixture, "controller, core and sigrepo chaos tests wrap their dialed connections"},

	"internal/sigrepo.Client.SetOnPush": {crossPackageFixture, "sigrepod's restart test subscribes to pushes through it"},

	"internal/slo.Options.Registry":         {testSeam, "tests give the tracker an isolated registry"},
	"internal/slo.WatchdogOptions.Registry": {testSeam, "tests give the watchdog an isolated registry"},
}

func TestEveryExportHasACaller(t *testing.T) {
	for key, a := range apiAllowlist {
		if a.kind < satisfiesInterface || a.kind > libraryEmulator || strings.TrimSpace(a.why) == "" {
			t.Errorf("%s: allowlist entry needs one of the four kinds and a reason", key)
		}
	}
	problems, err := apiProblems(os.DirFS("."), apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestAPICheckerCatchesPlantedCases shows each rule of the checker
// changing its verdict on a small tree.
func TestAPICheckerCatchesPlantedCases(t *testing.T) {
	base := map[string]string{
		"go.mod":        "module m\n",
		"a/a.go":        "package a\n\ntype T struct{}\n\nfunc New() T { return T{} }\n\ntype Options struct{ Knob int }\n",
		"cmd/x/main.go": "package main\n\nimport \"m/a\"\n\nfunc main() { _ = a.New(); _ = a.Options{} }\n",
	}
	allow := map[string]allowed{"a.Spare": {testSeam, "planted"}}
	spare := map[string]string{"a/spare.go": "package a\n\nfunc Spare() {}\n"}
	setInCmd := map[string]string{"cmd/x/set.go": "package main\n\nimport \"m/a\"\n\nvar _ = a.Options{Knob: 1}\n"}
	cases := []struct {
		name          string
		before, after map[string]string
		problem       string
		reported      bool // whether after reports problem (before must not)
	}{{
		name:    "unused exported func is reported",
		before:  spare,
		after:   merge(spare, map[string]string{"a/unused.go": "package a\n\nfunc Unused() {}\n"}),
		problem: "a.Unused: " + msgUncalled, reported: true,
	}, {
		name:    "method an interface declares is not reported",
		before:  merge(spare, map[string]string{"a/speak.go": "package a\n\nfunc (T) Speak() {}\n"}),
		after:   merge(spare, map[string]string{"a/speak.go": "package a\n\nfunc (T) Speak() {}\n\ntype Speaker interface{ Speak() }\n"}),
		problem: "a.T.Speak: " + msgUncalled, reported: false,
	}, {
		name:    "Options field set only in a _test.go is reported",
		before:  merge(spare, setInCmd),
		after:   merge(spare, map[string]string{"a/a_test.go": "package a\n\nvar _ = Options{Knob: 1}\n"}),
		problem: "a.Options.Knob: " + msgUnset, reported: true,
	}, {
		name:    "Options field set as a composite-literal key in non-test code is not reported",
		before:  merge(spare, map[string]string{"a/fill.go": "package a\n\nfunc (o *Options) fill() { o.Knob = 1 }\n"}),
		after:   merge(spare, map[string]string{"a/fill.go": "package a\n\nfunc (o *Options) fill() { o.Knob = 1 }\n"}, setInCmd),
		problem: "a.Options.Knob: " + msgUnset, reported: false,
	}, {
		name:    "stale allowlist entry is reported",
		before:  spare,
		after:   merge(spare, map[string]string{"cmd/x/spare.go": "package main\n\nimport \"m/a\"\n\nvar _ = a.Spare\n"}),
		problem: "a.Spare: " + msgStale, reported: true,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := func(files map[string]string) bool {
				fsys := fstest.MapFS{}
				for name, src := range merge(base, files) {
					fsys[name] = &fstest.MapFile{Data: []byte(src)}
				}
				problems, err := apiProblems(fsys, allow)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range problems {
					if p == c.problem {
						return true
					}
				}
				return false
			}
			if before, after := got(c.before), got(c.after); before != !c.reported || after != c.reported {
				t.Errorf("%q reported before/after = %v/%v, want %v/%v", c.problem, before, after, !c.reported, c.reported)
			}
		})
	}
}

func merge(ms ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

const (
	msgUncalled = "exported, but no non-test code refers to it"
	msgUnset    = "option field that no non-test code sets"
	msgStale    = "on the allowlist, but it has a non-test caller or no longer exists"
	msgFixture  = "allowlisted as a fixture, but no test in another package uses it"
)

// apiProblems runs both checks over the tree in fsys and measures the
// result against allow. A name counts as used when any non-test file
// in the tree names it (a selector x.Name anywhere, or the bare name
// in its own package), so the check never flags a used name but can
// miss an unused one that shares its name with a used one.
func apiProblems(fsys fs.FS, allow map[string]allowed) ([]string, error) {
	tr, err := parseTree(fsys)
	if err != nil {
		return nil, err
	}
	flagged := map[string]string{}
	for _, k := range tr.uncalled() {
		flagged[k] = msgUncalled
	}
	for _, k := range tr.unsetOptionFields() {
		flagged[k] = msgUnset
	}
	var problems []string
	for k, msg := range flagged {
		if _, ok := allow[k]; !ok {
			problems = append(problems, k+": "+msg)
		}
	}
	for k, a := range allow {
		if _, ok := flagged[k]; !ok {
			problems = append(problems, k+": "+msgStale)
		} else if a.kind == crossPackageFixture && !tr.usedByOtherTests(k) {
			problems = append(problems, k+": "+msgFixture)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

type srcFile struct {
	dir     string // slash path from the tree's root; "." is the root
	test    bool
	rootMod bool // belongs to the root module, not a nested go.mod
	f       *ast.File
	imports map[string]string // local name → dir of a root-module import
}

type tree struct {
	files []srcFile
	fset  *token.FileSet
}

func parseTree(fsys fs.FS) (*tree, error) {
	mod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	fset := token.NewFileSet()
	var files []srcFile
	var nested []string
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" && p != "go.mod" {
			nested = append(nested, path.Dir(p)+"/")
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := srcFile{dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), f: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(ip, modPath+"/")
			if !ok {
				continue
			}
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			sf.imports[name] = dir
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range files {
		files[i].rootMod = true
		for _, n := range nested {
			if strings.HasPrefix(files[i].dir+"/", n) {
				files[i].rootMod = false
			}
		}
	}
	return &tree{files: files, fset: fset}, nil
}

// declared reports whether f's declarations are subject to the checks:
// non-test, root module, not a command.
func (f srcFile) declared() bool {
	return !f.test && f.rootMod && f.f.Name.Name != "main"
}

// implicitMethods are called through interfaces of the standard
// library (fmt, json, io, net/http, errors).
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Close": true, "Read": true, "Write": true,
	"Unwrap": true, "Is": true,
}

// uncalled lists check (a): exported funcs, methods, types, consts and
// vars that no non-test code refers to.
func (tr *tree) uncalled() []string {
	sels := map[string]bool{}            // x.Name anywhere in non-test code
	bare := map[string]map[string]bool{} // dir → bare names referred to
	ifaceMethods := map[string]bool{}    // names declared by interfaces
	for _, sf := range tr.files {
		if sf.test {
			continue
		}
		if bare[sf.dir] == nil {
			bare[sf.dir] = map[string]bool{}
		}
		collectRefs(sf.f, sels, bare[sf.dir], ifaceMethods)
	}
	var out []string
	for _, sf := range tr.files {
		if !sf.declared() {
			continue
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if !ast.IsExported(name) {
					continue
				}
				if d.Recv == nil {
					if !sels[name] && !bare[sf.dir][name] {
						out = append(out, sf.dir+"."+name)
					}
				} else if !sels[name] && !ifaceMethods[name] && !implicitMethods[name] {
					out = append(out, sf.dir+"."+recvName(d.Recv.List[0].Type)+"."+name)
				}
			case *ast.GenDecl:
				for _, id := range specNames(d) {
					if ast.IsExported(id.Name) && !sels[id.Name] && !bare[sf.dir][id.Name] {
						out = append(out, sf.dir+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

func specNames(d *ast.GenDecl) []*ast.Ident {
	var ids []*ast.Ident
	for _, s := range d.Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			ids = append(ids, s.Name)
		case *ast.ValueSpec:
			ids = append(ids, s.Names...)
		}
	}
	return ids
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// collectRefs adds f's references to sels, bare and ifaceMethods. A
// declaration's own name, a receiver's type, the names a field list
// declares, and a declaration naming itself are not references.
func collectRefs(f *ast.File, sels, bare, ifaceMethods map[string]bool) {
	skip := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		own := map[string]bool{}
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			} else {
				own[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, id := range specNames(d) {
				skip[id] = true
				own[id.Name] = true
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] && !own[n.Name] {
					bare[n.Name] = true
				}
			}
			return true
		})
	}
}

// unsetOptionFields lists check (b): exported fields of exported
// *Options structs that no non-test code sets. A field is set by a
// composite-literal key in any non-test file, or by x.Field = … (or
// &x.Field handed to a flag) outside the field's own package; writes
// inside the package are defaulting and do not count.
func (tr *tree) unsetOptionFields() []string {
	type field struct{ dir, typ, name string }
	var fields []field
	for _, sf := range tr.files {
		if !sf.declared() {
			continue
		}
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Options") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{sf.dir, ts.Name.Name, id.Name})
						}
					}
				}
			}
		}
	}
	keyed := map[field]bool{}               // composite-literal keys of a named struct
	elided := map[string]bool{}             // keys of literals whose type is elided
	writers := map[string]map[string]bool{} // field name → dirs that write it
	for _, sf := range tr.files {
		if sf.test {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				dir, typ := sf.dir, ""
				lt := n.Type
				if ix, ok := lt.(*ast.IndexExpr); ok {
					lt = ix.X
				} else if ix, ok := lt.(*ast.IndexListExpr); ok {
					lt = ix.X
				}
				switch t := lt.(type) {
				case nil:
				case *ast.Ident:
					typ = t.Name
				case *ast.SelectorExpr:
					if x, ok := t.X.(*ast.Ident); ok {
						dir, typ = sf.imports[x.Name], t.Sel.Name
					}
				default:
					return true
				}
				for _, e := range n.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if k, ok := kv.Key.(*ast.Ident); ok {
						if n.Type == nil {
							elided[k.Name] = true
						} else {
							keyed[field{dir, typ, k.Name}] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if s, ok := l.(*ast.SelectorExpr); ok {
						addWriter(writers, s.Sel.Name, sf.dir)
					}
				}
			case *ast.UnaryExpr:
				if s, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					addWriter(writers, s.Sel.Name, sf.dir)
				}
			}
			return true
		})
	}
	var out []string
	for _, f := range fields {
		set := keyed[f] || elided[f.name]
		for dir := range writers[f.name] {
			set = set || dir != f.dir
		}
		if !set {
			out = append(out, fmt.Sprintf("%s.%s.%s", f.dir, f.typ, f.name))
		}
	}
	return out
}

func addWriter(w map[string]map[string]bool, name, dir string) {
	if w[name] == nil {
		w[name] = map[string]bool{}
	}
	w[name][dir] = true
}

// usedByOtherTests reports whether a _test.go file outside key's
// package names key's last element.
func (tr *tree) usedByOtherTests(key string) bool {
	dir, rest, _ := strings.Cut(key, ".")
	name := rest[strings.LastIndex(rest, ".")+1:]
	found := false
	for _, sf := range tr.files {
		if !sf.test || sf.dir == dir {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}
