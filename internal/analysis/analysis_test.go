package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"listset/internal/failpoint"
	"listset/internal/obs"
)

// wantRe extracts the quoted message fragments of a // want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one // want marker: a diagnostic with a message
// containing frag must be reported at exactly file:line.
type expectation struct {
	file string
	line int
	frag string
	hit  bool
}

// parseWants scans every Go file of dir for // want "..." markers.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantRe.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted fragment", path, pos.Line)
				}
				for _, m := range matches {
					wants = append(wants, &expectation{file: path, line: pos.Line, frag: m[1]})
				}
			}
		}
	}
	return wants
}

// checkWants asserts that diags are exactly the // want-marked
// file:line diagnostics of dir: each diagnostic matches one unmatched
// marker on its line whose fragment its message contains, and every
// marker is matched.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, dir)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || d.Pos.Line != w.line || filepath.Base(d.Pos.Filename) != filepath.Base(w.file) {
				continue
			}
			if strings.Contains(d.Message, w.frag) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.frag)
		}
	}
}

// TestAnalyzers runs each analyzer over its seeded-bad corpus and
// asserts it reports exactly the // want-marked file:line diagnostics
// and nothing else. The invariants whose analyzers were deleted keep
// their subtests, which check what catches a violation instead
// (DESIGN.md §6 has the trial): go vet's copylocks pass for copylock;
// for atomicmix, that no code calls the function-style sync/atomic
// API, the only API a plain access could race with; and for the rest,
// that scripts/check.sh still runs the legs that caught every seeded
// mutation, plus the nil dereference that makes an unguarded probe or
// failpoint site fail any test that reaches it.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"testdata/src/locksafe", LockSafe},
		{"testdata/src/benchhygiene", BenchHygiene},
		{"testdata/src/hotalloc", HotAlloc},
		{"testdata/src/lockorder", LockOrder},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg, err := LoadDir(tc.dir)
			if err != nil {
				t.Fatalf("loading %s: %v", tc.dir, err)
			}
			checkWants(t, tc.dir, Run([]*Pkg{pkg}, []*Analyzer{tc.analyzer}))
		})
	}
	t.Run("copylock", func(t *testing.T) {
		const dir = "testdata/src/copylock"
		out, err := exec.Command("go", "vet", "./"+dir).CombinedOutput()
		if err == nil {
			t.Fatalf("go vet ./%s exited 0, want findings", dir)
		}
		checkWants(t, dir, vetDiagnostics(string(out)))
	})
	t.Run("atomicmix", func(t *testing.T) {
		for _, pos := range funcAtomicCalls(t, filepath.Join("..", "..")) {
			t.Errorf("%s: function-style sync/atomic call; use a typed atomic so a plain access cannot compile", pos)
		}
	})
	// The race leg caught every post-publication val write.
	t.Run("valimmutable", func(t *testing.T) {
		checkScriptRuns(t, raceLeg, "./internal/core", "./internal/lazy", "./internal/skiplist")
	})
	// The unit tests caught the leaked pins (arena oracles), the race
	// leg the retire after Unpin.
	t.Run("epochpin", func(t *testing.T) {
		checkScriptRuns(t, unitLeg)
		checkScriptRuns(t, raceLeg, "./internal/core", "./internal/lazy", "./internal/skiplist", "./internal/mem")
	})
	t.Run("obshygiene", func(t *testing.T) {
		checkScriptRuns(t, unitLeg)
		var p *obs.Probes
		mustPanic(t, "Inc on a detached probe set", func() { p.Inc(obs.EvLogicalDelete, 1) })
	})
	t.Run("failpointhygiene", func(t *testing.T) {
		checkScriptRuns(t, unitLeg)
		var fp *failpoint.Set
		mustPanic(t, "Do on a detached failpoint set", func() { fp.Do(failpoint.SiteUnlink, 1) })
	})
}

// The scripts/check.sh legs that replace the deleted analyzers.
const (
	unitLeg = "go test -count=1 ./..."
	raceLeg = "go test -race -short -count=1 "
)

// checkScriptRuns asserts that scripts/check.sh has a line starting
// with cmd that names every one of pkgs.
func checkScriptRuns(t *testing.T, cmd string, pkgs ...string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, cmd) {
			continue
		}
		fields := strings.Fields(line)
		for _, p := range pkgs {
			if !slices.Contains(fields, p) {
				t.Errorf("scripts/check.sh: %q does not cover %s", line, p)
			}
		}
		return
	}
	t.Errorf("scripts/check.sh no longer runs %q", cmd)
}

// mustPanic asserts that f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic; an unguarded site would pass every test that reaches it", what)
		}
	}()
	f()
}

// vetLineRe matches one go vet finding, file:line:col: message.
var vetLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// vetDiagnostics parses go vet output into diagnostics.
func vetDiagnostics(out string) []Diagnostic {
	var diags []Diagnostic
	for _, line := range strings.Split(out, "\n") {
		m := vetLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, Diagnostic{
			Analyzer: "vet",
			Pos:      token.Position{Filename: m[1], Line: ln, Column: col},
			Message:  m[4],
		})
	}
	return diags
}

// funcAtomicCalls returns the position of every call to a package-level
// sync/atomic function (atomic.AddInt64 and kin) in the Go files under
// root, testdata trees excluded.
func funcAtomicCalls(t *testing.T, root string) []token.Position {
	t.Helper()
	fset := token.NewFileSet()
	var found []token.Position
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync/atomic"` {
				local = "atomic"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			// Every package-level name of sync/atomic that can be
			// called is a function; its types appear only in type
			// and composite-literal positions.
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						found = append(found, fset.Position(call.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestCleanRealPackage runs the whole suite over a real baseline
// package that is known-clean (the Lazy list releases on every path
// without needing suppressions): zero findings expected.
func TestCleanRealPackage(t *testing.T) {
	pkgs, err := Load([]string{"listset/internal/lazy"}, LoadOptions{Tests: false})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	if diags := Run(pkgs, Analyzers()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

// TestContractRealPackage runs locksafe over the VBL core, whose
// lockNextAt helpers intentionally escape with the lock held. Before
// the interprocedural pass this took //lint:ignore directives; now the
// returns-true-holding contracts are inferred, their consumption by
// Insert/Remove is verified, and zero findings — and zero
// suppressions — must remain.
func TestContractRealPackage(t *testing.T) {
	pkgs, err := Load([]string{"listset/internal/core"}, LoadOptions{Tests: false})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if diags := Run(pkgs, []*Analyzer{LockSafe}); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

// TestCrossPackageContracts loads the two-package fixture: helper
// exports a returns-true-holding lock helper, caller consumes it.
// The contract must flow across the package boundary — no finding in
// helper, no finding at the discharging call site, exactly one at the
// leaking one.
func TestCrossPackageContracts(t *testing.T) {
	pkgs, err := Load([]string{"./testdata/src/xpkg/helper", "./testdata/src/xpkg/caller"}, LoadOptions{Tests: false})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("Load returned %d packages, want 2", len(pkgs))
	}
	diags := Run(pkgs, []*Analyzer{LockSafe})
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1:\n%v", len(diags), diags)
	}
	d := diags[0]
	if filepath.Base(d.Pos.Filename) != "caller.go" || !strings.Contains(d.Message, "can reach the function exit") {
		t.Errorf("finding landed wrong: %s", d)
	}
	if !strings.Contains(d.Message, "n.Lock") || !strings.Contains(d.Message, "LockIfOK") {
		t.Errorf("finding should name the caller-side lock and the helper: %s", d)
	}
}

// TestEveryAnalyzerFiresOnCorpus locks the registry to its corpora: a
// registered analyzer whose own seeded-bad corpus produces no finding
// is either broken or untested, and either way must not ship.
func TestEveryAnalyzerFiresOnCorpus(t *testing.T) {
	for _, a := range Analyzers() {
		dir := filepath.Join("testdata", "src", a.Name)
		pkg, err := LoadDir(dir)
		if err != nil {
			t.Errorf("%s: no loadable corpus at %s: %v", a.Name, dir, err)
			continue
		}
		fired := false
		for _, d := range Run([]*Pkg{pkg}, []*Analyzer{a}) {
			if d.Analyzer == a.Name {
				fired = true
				break
			}
		}
		if !fired {
			t.Errorf("%s: produced no finding on its own corpus %s", a.Name, dir)
		}
	}
}

// TestParseSuppressions covers the directive grammar: well-formed
// line and file directives parse, a reason is mandatory.
func TestParseSuppressions(t *testing.T) {
	src := `package p

//lint:file-ignore locksafe whole file exempt for the test

func f() {
	//lint:ignore locksafe,epochpin two analyzers, one reason
	_ = 1
	//lint:ignore locksafe
	_ = 2
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	supps := parseSuppressions(fset, f)
	if len(supps) != 3 {
		t.Fatalf("got %d suppressions, want 3", len(supps))
	}
	if !supps[0].fileWide || !supps[0].analyzers["locksafe"] {
		t.Errorf("file-ignore parsed wrong: %+v", supps[0])
	}
	if supps[1].fileWide || !supps[1].analyzers["locksafe"] || !supps[1].analyzers["epochpin"] {
		t.Errorf("line ignore parsed wrong: %+v", supps[1])
	}
	if supps[2].analyzers != nil {
		t.Errorf("reason-less directive should parse as malformed, got %+v", supps[2])
	}
}

// TestDiagnosticString pins the clickable file:line:col format the CI
// gate greps.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "locksafe",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "boom",
	}
	if got, want := d.String(), "x.go:3:7: locksafe: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestExprKey pins the canonical lock keys the locksafe state machine
// matches acquisitions and releases by.
func TestExprKey(t *testing.T) {
	cases := []struct{ src, want string }{
		{"l", "l"},
		{"n.lock", "n.lock"},
		{"preds[0].lock", "preds[0].lock"},
		{"preds[l].lock", "preds[l].lock"},
		{"(*p).lock", "*p.lock"},
	}
	for _, tc := range cases {
		e, err := parser.ParseExpr(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := exprKey(e); got != tc.want {
			t.Errorf("exprKey(%s) = %q, want %q", tc.src, got, tc.want)
		}
	}
}
