// The interprocedural half of the protocol analyzers: per-function
// summaries, the call graph implied by them, and the worklist fixpoint
// that infers them.
//
// A summary abstracts what a function does to locks in
// terms of its *slots* — receiver, i-th parameter, i-th result — plus a
// selector path ("" for the slot itself, ".lock" for a field of it):
//
//   - acquiresAlways: lock slots held on every exit (core's acquire,
//     lazy's lockWindow, optimistic's lockWindow via result slots);
//   - acquiresOnTrue: for a bool-returning function, lock slots held on
//     every `return true` and on no `return false` — the value-aware
//     try-lock contract of lockNextAt / lockNextAtValue;
//   - releases: lock slots the function unlocks on every exit without
//     having acquired them (unlock helpers).
//
// Summaries are inferred by running the symbolic executor (exec.go)
// silently and classifying the exit states; since the executor itself
// applies summaries at call sites, inference iterates to a fixpoint
// (summaries only grow toward the call-depth of the program, so a few
// rounds settle it). Functions whose exit states cannot be expressed
// in slots — locks on locals that never escape, inconsistent branches
// — get no contract and stay opaque: calling them has no tracked
// effect, and the analyzers report their internal leaks directly.
//
// A returns-holding contract is only trusted if some call site in the
// analyzed program actually *consumes* it — uses the bool result as a
// branch condition, binds the returned window, passes resolvable lock
// arguments. An inferred contract nobody consumes is treated as the
// leak it probably is. This is what "verified at call sites" means:
// the helper is checked to uphold the contract (classification), and
// the callers are checked to discharge it (consumption plus the
// caller-side release obligation the executor tracks).
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// A slotKind says which part of a function's signature a slot names.
type slotKind int

const (
	slotRecv slotKind = iota
	slotParam
	slotResult
)

// A slot names a lock (or guard) reachable from a function's signature:
// the receiver, a parameter, or a result, plus a selector path.
type slot struct {
	kind  slotKind
	index int
	path  string // "" or a selector path like ".lock" or "[0].lock"
}

func (s slot) describe() string {
	switch s.kind {
	case slotRecv:
		return "the receiver's " + strings.TrimPrefix(s.path, ".")
	case slotParam:
		return "parameter " + itoa(s.index) + "'s " + strings.TrimPrefix(s.path, ".")
	default:
		return "result " + itoa(s.index) + "'s " + strings.TrimPrefix(s.path, ".")
	}
}

func describeSlots(slots []slot) string {
	parts := make([]string, len(slots))
	for i, s := range slots {
		parts[i] = s.describe()
	}
	return strings.Join(parts, " and ")
}

// A funcSummary is the inferred lock contract of one function.
type funcSummary struct {
	// lockOK reports whether the exits were classifiable at all; when
	// false the acquire/release slices are nil and locksafe reports the
	// function's exit-held locks directly.
	lockOK         bool
	acquiresAlways []slot // in acquisition order (lockorder depends on it)
	acquiresOnTrue []slot
	releases       []slot
}

func slotsEqual(a, b []slot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sumEqual(a, b *funcSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.lockOK == b.lockOK &&
		slotsEqual(a.acquiresAlways, b.acquiresAlways) &&
		slotsEqual(a.acquiresOnTrue, b.acquiresOnTrue) &&
		slotsEqual(a.releases, b.releases)
}

// hasLockContract reports whether the summary carries a non-empty
// returns-holding obligation that call sites must discharge.
func (s *funcSummary) hasLockContract() bool {
	return s != nil && s.lockOK && (len(s.acquiresAlways) > 0 || len(s.acquiresOnTrue) > 0)
}

// A progFunc is one analyzable function declaration.
type progFunc struct {
	pkg  *Pkg
	decl *ast.FuncDecl
	key  string
}

// A Program is the interprocedural context shared by every analyzer of
// one Run: the indexed function declarations, their inferred
// summaries, and which contracts are consumed somewhere.
type Program struct {
	fns       []*progFunc
	byKey     map[string]*progFunc
	summaries map[string]*funcSummary
	consumed  map[string]bool
}

// isIntrinsicLockDecl reports whether fd implements one of the trylock
// package's acquisition primitives. Their bodies ARE the lock
// implementation — the analyzers model them as intrinsics at call
// sites and skip the bodies (a spin loop around TryLock would
// otherwise read as an unreleased acquisition).
func isIntrinsicLockDecl(pkgPath string, fd *ast.FuncDecl) bool {
	if !strings.HasSuffix(pkgPath, trylockPkgSuffix) || fd.Recv == nil {
		return false
	}
	switch fd.Name.Name {
	case "Lock", "TryLock", "Unlock", "LockContended":
	default:
		return false
	}
	switch recvTypeName(fd) {
	case "SpinLock", "MutexLock":
		return true
	}
	return false
}

// recvTypeName extracts the receiver's type name from a declaration.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver Arena[T]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// funcKeyOfDecl builds the cross-package identity of a declaration.
// Packages are type-checked in separate universes, so identity is by
// (package path, receiver type name, function name) strings.
func funcKeyOfDecl(pkgPath string, fd *ast.FuncDecl) string {
	return pkgPath + "|" + recvTypeName(fd) + "|" + fd.Name.Name
}

// funcKeyOfCall resolves the callee of a call to the same identity, or
// "" if the callee is not a statically-known function.
func funcKeyOfCall(info *types.Info, call *ast.CallExpr) string {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
			continue
		case *ast.IndexExpr: // explicit instantiation f[T](...)
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	default:
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	recvName := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			recvName = named.Obj().Name()
		} else {
			return "" // interface or otherwise dynamic dispatch
		}
	}
	return fn.Pkg().Path() + "|" + recvName + "|" + fn.Name()
}

// summaryAndKey resolves a call site to the callee's inferred summary.
func (prog *Program) summaryAndKey(pass *Pass, call *ast.CallExpr) (*funcSummary, string) {
	key := funcKeyOfCall(pass.Info, call)
	if key == "" {
		return nil, ""
	}
	return prog.summaries[key], key
}

// A slotBinding maps a callee's slots to the caller's expressions at
// one call site: the receiver to the selector base, parameters to
// arguments, results to assignment targets.
type slotBinding struct {
	recvKey string
	argKeys []string
	lhsKeys []string
}

func newSlotBinding(call *ast.CallExpr, lhs []ast.Expr) slotBinding {
	b := slotBinding{}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		b.recvKey = bindableKey(sel.X)
	}
	for _, a := range call.Args {
		b.argKeys = append(b.argKeys, bindableKey(a))
	}
	for _, l := range lhs {
		b.lhsKeys = append(b.lhsKeys, bindableKey(l))
	}
	return b
}

// resolve renders a callee slot in the caller's key space, reporting
// false when the binding expression is absent or not a trackable shape
// (a literal argument, a discarded result, a blank identifier).
func (b slotBinding) resolve(sl slot) (string, bool) {
	var base string
	switch sl.kind {
	case slotRecv:
		base = b.recvKey
	case slotParam:
		if sl.index < len(b.argKeys) {
			base = b.argKeys[sl.index]
		}
	case slotResult:
		if sl.index < len(b.lhsKeys) {
			base = b.lhsKeys[sl.index]
		}
	}
	if base == "" || base == "_" {
		return "", false
	}
	return base + sl.path, true
}

// inferRuns is the worklist bound: summaries can only deepen along call
// chains, which in this codebase are two or three frames; ten rounds is
// a generous ceiling.
const inferRuns = 10

// inferAnalyzer is the pseudo-analyzer summary inference runs under
// (its diagnostics are discarded).
var inferAnalyzer = &Analyzer{Name: "infer", Doc: "internal summary inference"}

// BuildProgram indexes every function declaration of pkgs, infers
// lock summaries to a fixpoint and records which contracts are
// consumed by some call site. It is run once per Run, before any
// analyzer.
func BuildProgram(pkgs []*Pkg) *Program {
	prog := &Program{
		byKey:     make(map[string]*progFunc),
		summaries: make(map[string]*funcSummary),
		consumed:  make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// The trylock primitives are modeled as intrinsics at
				// call sites; summarizing their bodies would
				// double-count.
				if isIntrinsicLockDecl(pkg.Types.Path(), fd) {
					continue
				}
				pf := &progFunc{pkg: pkg, decl: fd, key: funcKeyOfDecl(pkg.Types.Path(), fd)}
				prog.fns = append(prog.fns, pf)
				prog.byKey[pf.key] = pf
			}
		}
	}

	for round := 0; round < inferRuns; round++ {
		changed := false
		for _, pf := range prog.fns {
			sum := prog.infer(pf)
			if !sumEqual(prog.summaries[pf.key], sum) {
				prog.summaries[pf.key] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Consumption pass: one silent execution per function with the
	// final summaries, marking every contract some call site discharges.
	for _, pf := range prog.fns {
		ex := newExecEngine(prog.scratchPass(pf.pkg), prog)
		ex.noteConsume = true
		ex.run(pf.decl, pf.decl.Body)
		for i := 0; i < len(ex.queue); i++ {
			lit := ex.queue[i]
			sub := newExecEngine(prog.scratchPass(pf.pkg), prog)
			sub.noteConsume = true
			sub.run(nil, lit.Body)
			ex.queue = append(ex.queue, sub.queue...)
		}
	}
	return prog
}

// scratchPass builds a throwaway Pass for silent engine runs.
func (prog *Program) scratchPass(pkg *Pkg) *Pass {
	var scratch []Diagnostic
	return &Pass{
		Analyzer:   inferAnalyzer,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		ImportPath: pkg.ImportPath,
		Prog:       prog,
		diags:      &scratch,
	}
}

// infer runs the executor silently over one function and classifies
// its exits into a summary.
func (prog *Program) infer(pf *progFunc) *funcSummary {
	ex := newExecEngine(prog.scratchPass(pf.pkg), prog)
	exits := ex.run(pf.decl, pf.decl.Body)
	return classifyExits(pf.decl, exits)
}

// declSlotNames extracts the receiver and parameter names of fd.
func declSlotNames(fd *ast.FuncDecl) (recvName string, paramNames []string) {
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvName = fd.Recv.List[0].Names[0].Name
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				paramNames = append(paramNames, "")
				continue
			}
			for _, n := range f.Names {
				paramNames = append(paramNames, n.Name)
			}
		}
	}
	return recvName, paramNames
}

// matchPrefix reports whether key denotes something reachable from the
// variable name (key == name, or name followed by a selector or index),
// returning the path suffix.
func matchPrefix(key, name string) (string, bool) {
	if name == "" || name == "_" {
		return "", false
	}
	if key == name {
		return "", true
	}
	if strings.HasPrefix(key, name) {
		rest := key[len(name):]
		if rest[0] == '.' || rest[0] == '[' {
			return rest, true
		}
	}
	return "", false
}

// validPath accepts selector/index paths the call-site binder can
// re-render ("‹expr@N›" position keys and call suffixes cannot be).
func validPath(path string) bool {
	for _, r := range path {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '[' || r == ']' || r == '_':
		default:
			return false
		}
	}
	return true
}

// keyToSlot maps one held-lock key at one exit to a signature slot.
func keyToSlot(key, recvName string, paramNames, resultKeys []string) (slot, bool) {
	if path, ok := matchPrefix(key, recvName); ok && validPath(path) {
		return slot{kind: slotRecv, path: path}, true
	}
	for i, p := range paramNames {
		if path, ok := matchPrefix(key, p); ok && validPath(path) {
			return slot{kind: slotParam, index: i, path: path}, true
		}
	}
	for i, rk := range resultKeys {
		if rk == "" {
			continue
		}
		if path, ok := matchPrefix(key, rk); ok && validPath(path) {
			return slot{kind: slotResult, index: i, path: path}, true
		}
	}
	return slot{}, false
}

// slotSetEqual compares two slot sets ignoring order.
func slotSetEqual(a, b []slot) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, s := range a {
		for i, t := range b {
			if !used[i] && s == t {
				used[i] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// classifyExits turns the executor's exit records into a summary.
func classifyExits(fd *ast.FuncDecl, exits []exitRec) *funcSummary {
	recvName, paramNames := declSlotNames(fd)
	sum := &funcSummary{}

	// Lock contract: every held lock at every exit must map to a slot.
	type exitClass struct {
		rec   exitRec
		slots []slot
	}
	classes := make([]exitClass, 0, len(exits))
	expressible := true
	for _, rec := range exits {
		ec := exitClass{rec: rec}
		for _, h := range rec.held {
			sl, ok := keyToSlot(h.key, recvName, paramNames, rec.resultKeys)
			if !ok {
				expressible = false
				break
			}
			ec.slots = append(ec.slots, sl)
		}
		if !expressible {
			break
		}
		classes = append(classes, ec)
	}

	if expressible && len(classes) > 0 {
		allEqual := true
		for _, ec := range classes[1:] {
			if !slotSetEqual(classes[0].slots, ec.slots) {
				allEqual = false
				break
			}
		}
		isBool := false
		for _, ec := range classes {
			if ec.rec.result != resultNone {
				isBool = true
			}
		}
		switch {
		case allEqual:
			sum.lockOK = true
			sum.acquiresAlways = classes[0].slots
		case isBool:
			// The value-aware try-lock shape: held on every literal
			// true exit, empty on every false exit, no unclassifiable
			// exits.
			var onTrue []slot
			ok := true
			haveTrue := false
			for _, ec := range classes {
				switch ec.rec.result {
				case resultTrue:
					if !haveTrue {
						onTrue, haveTrue = ec.slots, true
					} else if !slotSetEqual(onTrue, ec.slots) {
						ok = false
					}
				default: // false, unknown, or a non-bool fall-off
					if len(ec.slots) != 0 {
						ok = false
					}
				}
			}
			if ok && haveTrue && len(onTrue) > 0 {
				sum.lockOK = true
				sum.acquiresOnTrue = onTrue
			}
		}
	} else if expressible {
		sum.lockOK = true // no exits recorded (e.g. infinite loop): vacuous
	}

	// Foreign releases: unlocked-without-holding keys agreed on by all
	// exits, expressible via receiver/parameters.
	if len(exits) > 0 {
		var rel []slot
		ok := true
		for i, rec := range exits {
			var slots []slot
			for _, key := range rec.relForeign {
				sl, found := keyToSlot(key, recvName, paramNames, nil)
				if !found || sl.kind == slotResult {
					ok = false
					break
				}
				slots = append(slots, sl)
			}
			if !ok {
				break
			}
			if i == 0 {
				rel = slots
			} else if !slotSetEqual(rel, slots) {
				ok = false
				break
			}
		}
		if ok {
			sum.releases = rel
		}
	}

	return sum
}
