// The shared symbolic-execution engine behind the protocol analyzers
// (locksafe, lockorder). It generalizes the original
// locksafe walker: one path-sensitive pass over a function body tracks
//
//   - the multiset of held try-locks (acquired by Lock/LockContended,
//     by the success branch of a TryLock guard, or by a callee whose
//     inferred summary says it returns holding a lock), keyed by the
//     canonical syntax of the receiver expression;
//   - registered deferred unlocks (direct, via deferred closures, and
//     via deferred calls to helpers whose summary releases locks).
//
// Call sites are where the interprocedural half (interproc.go) plugs
// in: a call to a function with an inferred summary applies that
// summary's lock effects to the caller's abstract state, with
// the callee's slots (receiver, parameter i, result i) rebound to the
// caller's argument and binding expressions. Calls without a summary
// (unloaded packages, functions too irregular to summarize) are
// opaque: no effects, exactly the pre-interprocedural behavior.
//
// The engine runs in two roles. Summary inference (interproc.go) runs
// it silently and classifies the exit states into a contract. The
// analyzers run it with their report flags set and get the immediate
// findings (self-deadlock, leak-per-iteration, unguarded TryLock, ...)
// plus the collected exits to check against the already-inferred
// contract.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A heldLock is one acquisition on the current path.
type heldLock struct {
	key    string
	pos    token.Pos
	method string // "Lock", "TryLock", "LockContended" or the callee name
}

// An absState is the abstract state of one control-flow path.
type absState struct {
	held       []heldLock
	deferred   []string // keys with a registered deferred unlock
	relForeign []string // keys unlocked without holding them (caller's locks)
}

func (s absState) clone() absState {
	return absState{
		held:       append([]heldLock(nil), s.held...),
		deferred:   append([]string(nil), s.deferred...),
		relForeign: append([]string(nil), s.relForeign...),
	}
}

func (s absState) holds(key string) bool {
	for _, h := range s.held {
		if h.key == key {
			return true
		}
	}
	return false
}

func (s absState) isDeferred(key string) bool {
	for _, d := range s.deferred {
		if d == key {
			return true
		}
	}
	return false
}

// sig is a canonical signature for state deduplication.
func (s absState) sig() string {
	parts := make([]string, 0, len(s.held)+len(s.deferred))
	for _, h := range s.held {
		parts = append(parts, h.key+"@"+itoa(int(h.pos)))
	}
	sort.Strings(parts)
	d := append([]string(nil), s.deferred...)
	sort.Strings(d)
	rf := append([]string(nil), s.relForeign...)
	sort.Strings(rf)
	return strings.Join(parts, ";") + "|" + strings.Join(d, ";") + "|" + strings.Join(rf, ";")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// boolResult classifies what a bool-returning function's exit returned.
type boolResult int

const (
	resultNone    boolResult = iota // not a single-bool function, or fall-off end
	resultTrue                      // return true
	resultFalse                     // return false
	resultUnknown                   // return <non-literal bool>
)

// An exitRec is one path leaving the function: where, with what bool
// result, holding which locks, and how the return expressions map
// result indices to canonical keys (for result-slot contracts).
type exitRec struct {
	pos        token.Pos
	result     boolResult
	held       []heldLock
	resultKeys []string // exprKey of each returned expression ("" if opaque)
	relForeign []string // locks released without acquiring (release contracts)
}

// maxExecStates caps path explosion; beyond it states are merged by
// truncation (the analysis stays useful but may miss paths in very
// branchy functions — none in this codebase come close).
const maxExecStates = 80

// an execFrame is one enclosing breakable construct during execution.
type execFrame struct {
	isLoop    bool
	label     string
	breaks    []absState
	entryHeld map[string]bool // key@pos of locks held at loop entry
}

// execEngine symbolically executes one function body.
type execEngine struct {
	pass *Pass
	prog *Program

	// report flags: which immediate findings to emit. All false during
	// summary inference.
	reportLocks bool

	// onAcquire, when set, observes every lock acquisition with the
	// path state as it was BEFORE the acquisition (lockorder's hook).
	onAcquire func(st absState, key string, pos token.Pos)

	// noteConsume, when set, records in the Program which callee
	// contracts this function's call sites discharge.
	noteConsume bool

	// fn is the declaration under execution (nil for function
	// literals); decl result names back bare returns.
	fn *ast.FuncDecl

	exits    []exitRec
	reported map[token.Pos]bool
	guarded  map[*ast.CallExpr]bool
	queue    []*ast.FuncLit
}

func newExecEngine(pass *Pass, prog *Program) *execEngine {
	return &execEngine{
		pass:     pass,
		prog:     prog,
		reported: make(map[token.Pos]bool),
		guarded:  make(map[*ast.CallExpr]bool),
	}
}

// run executes a function body and returns the exit records (explicit
// returns plus the fall-off-the-end exit).
func (ex *execEngine) run(fn *ast.FuncDecl, body *ast.BlockStmt) []exitRec {
	ex.fn = fn
	out := ex.execBlock(body, []absState{{}}, nil)
	for _, s := range out {
		ex.recordExit(s, body.End(), nil)
	}
	ex.flagUnguardedTryLocks(body)
	return ex.exits
}

func (ex *execEngine) reportOnce(pos token.Pos, format string, args ...any) {
	if ex.reported[pos] {
		return
	}
	ex.reported[pos] = true
	ex.pass.Reportf(pos, format, args...)
}

// recordExit snapshots one path leaving the function.
func (ex *execEngine) recordExit(s absState, pos token.Pos, ret *ast.ReturnStmt) {
	rec := exitRec{pos: pos, result: resultNone}
	for _, h := range s.held {
		if !s.isDeferred(h.key) {
			rec.held = append(rec.held, h)
		}
	}
	rec.relForeign = append(rec.relForeign, s.relForeign...)
	if ret != nil {
		for _, r := range ret.Results {
			rec.resultKeys = append(rec.resultKeys, bindableKey(r))
		}
		if len(ret.Results) == 0 && ex.fn != nil {
			// Bare return with named results.
			rec.resultKeys = namedResultKeys(ex.fn)
		}
		if isSingleBoolFunc(ex.fn) {
			rec.result = resultUnknown
			if len(ret.Results) == 1 {
				if id, ok := ret.Results[0].(*ast.Ident); ok {
					switch id.Name {
					case "true":
						rec.result = resultTrue
					case "false":
						rec.result = resultFalse
					}
				}
			}
		}
	} else if ex.fn != nil && isSingleBoolFunc(ex.fn) {
		rec.result = resultUnknown // cannot fall off a bool function; defensive
	}
	ex.exits = append(ex.exits, rec)
}

// bindableKey renders the canonical key of a return expression when it
// is a shape the caller can rebind ("" otherwise).
func bindableKey(e ast.Expr) string {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return exprKey(e)
	}
	return ""
}

// namedResultKeys returns the declared result names of fn ("" for
// anonymous results).
func namedResultKeys(fn *ast.FuncDecl) []string {
	var keys []string
	if fn.Type.Results == nil {
		return nil
	}
	for _, f := range fn.Type.Results.List {
		if len(f.Names) == 0 {
			keys = append(keys, "")
			continue
		}
		for _, n := range f.Names {
			keys = append(keys, n.Name)
		}
	}
	return keys
}

// isSingleBoolFunc reports whether fn returns exactly one bool.
func isSingleBoolFunc(fn *ast.FuncDecl) bool {
	if fn == nil || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
		return false
	}
	f := fn.Type.Results.List[0]
	if len(f.Names) > 1 {
		return false
	}
	id, ok := f.Type.(*ast.Ident)
	return ok && id.Name == "bool"
}

// acquire adds one lock acquisition to every incoming state.
func (ex *execEngine) acquire(states []absState, key string, pos token.Pos, method string) []absState {
	out := make([]absState, 0, len(states))
	for _, s := range states {
		if s.holds(key) {
			if ex.reportLocks {
				ex.reportOnce(pos, "%s is locked while already held on this path (SpinLock is not reentrant: self-deadlock)", key)
			}
			out = append(out, s)
			continue
		}
		if ex.onAcquire != nil {
			ex.onAcquire(s, key, pos)
		}
		ns := s.clone()
		ns.held = append(ns.held, heldLock{key: key, pos: pos, method: method})
		out = append(out, ns)
	}
	return out
}

func release(states []absState, key string) []absState {
	out := make([]absState, 0, len(states))
	for _, s := range states {
		ns := s.clone()
		found := false
		for i, h := range ns.held {
			if h.key == key {
				ns.held = append(ns.held[:i], ns.held[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			// Releasing a lock this function never acquired: a
			// caller-held lock being unlocked on the caller's behalf
			// (the raw material of a release contract).
			ns.relForeign = append(ns.relForeign, key)
		}
		out = append(out, ns)
	}
	return out
}

// checkIterEnd verifies that a loop iteration ends without holding a
// lock it acquired itself.
func (ex *execEngine) checkIterEnd(s absState, frame *execFrame, at token.Pos) {
	if !ex.reportLocks {
		return
	}
	for _, h := range s.held {
		if frame.entryHeld[h.key+"@"+itoa(int(h.pos))] || s.isDeferred(h.key) {
			continue
		}
		ex.reportOnce(h.pos,
			"%s acquired by %s inside this loop is still held when the iteration ends at line %d",
			h.key, h.method, ex.pass.Fset.Position(at).Line)
	}
}

// mergeStates concatenates and deduplicates path states, capping the
// total.
func mergeStates(groups ...[]absState) []absState {
	var out []absState
	seen := make(map[string]bool)
	for _, g := range groups {
		for _, s := range g {
			sig := s.sig()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			out = append(out, s)
			if len(out) >= maxExecStates {
				return out
			}
		}
	}
	return out
}

// collectFuncLits queues every function literal under n for separate
// analysis. Literal bodies are otherwise opaque to the enclosing
// function's execution.
func (ex *execEngine) collectFuncLits(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			ex.queue = append(ex.queue, lit)
			return false
		}
		return true
	})
}

// applyCallEffects maps a summarized callee's unconditional effects
// onto the caller's states. lhs, when non-nil, is the assignment
// target list binding the call's results. Returns the updated states.
func (ex *execEngine) applyCallEffects(call *ast.CallExpr, sum *funcSummary, key string, lhs []ast.Expr, states []absState) []absState {
	if sum == nil {
		return states
	}
	bind := newSlotBinding(call, lhs)
	// Unconditional acquisitions, in the callee's acquisition order.
	allResolved := true
	for _, sl := range sum.acquiresAlways {
		k, ok := bind.resolve(sl)
		if !ok {
			allResolved = false
			if sl.kind == slotResult && ex.reportLocks {
				ex.reportOnce(call.Pos(),
					"%s returns holding %s, but the result is discarded; the lock can never be released",
					calleeName(call), sl.describe())
			}
			continue
		}
		states = ex.acquire(states, k, call.Pos(), calleeName(call))
	}
	if ex.noteConsume && allResolved && len(sum.acquiresAlways) > 0 && len(sum.acquiresOnTrue) == 0 {
		ex.prog.consumed[key] = true
	}
	// A conditional contract whose result is not consumed as a branch
	// condition is an untrackable acquisition.
	if len(sum.acquiresOnTrue) > 0 && !ex.guarded[call] && lhs == nil {
		if ex.reportLocks {
			ex.reportOnce(call.Pos(),
				"result of %s is not used directly as a branch condition; on success it returns holding %s, which this call site cannot release",
				calleeName(call), describeSlots(sum.acquiresOnTrue))
		}
	}
	// Unconditional releases.
	for _, sl := range sum.releases {
		if k, ok := bind.resolve(sl); ok {
			states = release(states, k)
		}
	}
	return states
}

// calleeName renders a short name for a call for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return exprKey(f.X) + "." + f.Sel.Name
	}
	return "call"
}

// execCall processes one call expression in statement position (or as
// a bound assignment RHS), handling intrinsics and summaries.
func (ex *execEngine) execCall(call *ast.CallExpr, lhs []ast.Expr, in []absState) ([]absState, bool) {
	// Try-lock intrinsics.
	if recv, method, isLock := trylockMethod(ex.pass.Info, call); isLock {
		switch method {
		case "Lock", "LockContended":
			return ex.acquire(in, exprKey(recv), call.Pos(), method), true
		case "Unlock":
			return release(in, exprKey(recv)), true
		case "TryLock":
			return in, true // bare TryLock: flagged by flagUnguardedTryLocks
		}
	}
	if isNoReturn(ex.pass.Info, call) {
		return nil, true // path ends here; release not required
	}
	// Interprocedural: apply the callee's summary, if one was inferred.
	if ex.prog != nil {
		if sum, key := ex.prog.summaryAndKey(ex.pass, call); sum != nil {
			return ex.applyCallEffects(call, sum, key, lhs, in), true
		}
	}
	return in, false
}

// isNoReturn reports whether a call terminates the current path:
// panic, runtime.Goexit, os.Exit, log.Fatal*, or the terminating
// testing methods (Fatal*, FailNow, Skip*) — t.Fatal runs
// runtime.Goexit, so a test path genuinely ends there and the failed
// branch of a validation check owes no release.
func isNoReturn(info *types.Info, call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "panic"
	case *ast.SelectorExpr:
		name := f.Sel.Name
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			switch name {
			case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			default:
				return false
			}
			recv := sel.Recv()
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			named, isNamed := recv.(*types.Named)
			return isNamed && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "testing"
		}
		fn, isFunc := info.Uses[f.Sel].(*types.Func)
		if !isFunc || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return name == "Exit"
		case "runtime":
			return name == "Goexit"
		case "log":
			return name == "Fatal" || name == "Fatalf" || name == "Fatalln"
		}
	}
	return false
}

// evalCond evaluates a branch condition, splitting the incoming states
// into those where the condition is true and those where it is false,
// acquiring locks for TryLock calls and conditional-contract helper
// calls used as guards.
func (ex *execEngine) evalCond(cond ast.Expr, in []absState) (t, f []absState) {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return ex.evalCond(c.X, in)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			t, f = ex.evalCond(c.X, in)
			return f, t
		}
	case *ast.CallExpr:
		if recv, method, ok := trylockMethod(ex.pass.Info, c); ok {
			switch method {
			case "TryLock":
				ex.guarded[c] = true
				return ex.acquire(in, exprKey(recv), c.Pos(), "TryLock"), in
			case "LockContended":
				// The bool is the contention flag, not success: the
				// acquisition is unconditional on both branches.
				out := ex.acquire(in, exprKey(recv), c.Pos(), "LockContended")
				return out, out
			}
		}
		if ex.prog != nil {
			if sum, key := ex.prog.summaryAndKey(ex.pass, c); sum != nil {
				ex.guarded[c] = true
				bind := newSlotBinding(c, nil)
				t, f = in, in
				// Unconditional effects apply to both branches.
				t = ex.applyCallEffects(c, sum, key, nil, t)
				f = ex.applyCallEffects(c, sum, key, nil, f)
				allResolved := len(sum.acquiresOnTrue) > 0
				for _, sl := range sum.acquiresOnTrue {
					k, ok := bind.resolve(sl)
					if !ok {
						allResolved = false
						continue
					}
					t = ex.acquire(t, k, c.Pos(), calleeName(c))
				}
				if ex.noteConsume && allResolved {
					ex.prog.consumed[key] = true
				}
				return t, f
			}
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			xt, xf := ex.evalCond(c.X, in)
			yt, yf := ex.evalCond(c.Y, xt)
			return yt, mergeStates(xf, yf)
		case token.LOR:
			xt, xf := ex.evalCond(c.X, in)
			yt, yf := ex.evalCond(c.Y, xf)
			return mergeStates(xt, yt), yf
		}
	}
	return in, in
}

// flagUnguardedTryLocks reports TryLock calls whose result did not
// flow through a recognized guard (and so whose success path the
// analysis cannot check). Function literals are skipped: they are
// analyzed — and flagged — separately.
func (ex *execEngine) flagUnguardedTryLocks(body *ast.BlockStmt) {
	if !ex.reportLocks {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, isLock := trylockMethod(ex.pass.Info, call); isLock && method == "TryLock" && !ex.guarded[call] {
			ex.reportOnce(call.Pos(),
				"result of %s.TryLock() is not used directly as a branch condition; a successful acquisition here cannot be tracked",
				exprKey(recv))
		}
		return true
	})
}

func (ex *execEngine) execBlock(b *ast.BlockStmt, in []absState, frames []*execFrame) []absState {
	states := in
	for _, stmt := range b.List {
		if len(states) == 0 {
			// Remaining statements are unreachable on every tracked
			// path (e.g. code after an infinite for with returns).
			break
		}
		states = ex.exec(stmt, states, frames)
	}
	return states
}

// innermost returns the innermost frame satisfying pred (matching
// label if given).
func innermost(frames []*execFrame, label string, loopOnly bool) *execFrame {
	for i := len(frames) - 1; i >= 0; i-- {
		fr := frames[i]
		if loopOnly && !fr.isLoop {
			continue
		}
		if label != "" && fr.label != label {
			continue
		}
		return fr
	}
	return nil
}

func entrySigs(states []absState) map[string]bool {
	held := make(map[string]bool)
	for _, s := range states {
		for _, h := range s.held {
			held[h.key+"@"+itoa(int(h.pos))] = true
		}
	}
	return held
}

// exec symbolically executes one statement, returning the states that
// flow past it.
func (ex *execEngine) exec(stmt ast.Stmt, in []absState, frames []*execFrame) []absState {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return ex.execBlock(s, in, frames)

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			out, handled := ex.execCall(call, nil, in)
			if handled {
				for _, arg := range call.Args {
					ex.collectFuncLits(arg)
				}
				return out
			}
		}
		ex.collectFuncLits(s.X)
		return in

	case *ast.DeferStmt:
		if recv, method, isLock := trylockMethod(ex.pass.Info, s.Call); isLock && method == "Unlock" {
			out := make([]absState, 0, len(in))
			for _, st := range in {
				ns := st.clone()
				ns.deferred = append(ns.deferred, exprKey(recv))
				out = append(out, ns)
			}
			return out
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure that unlocks on behalf of the
			// enclosing function registers those keys as deferred.
			unlockKeys := deferredReleaseKeys(ex.pass, lit)
			ex.queue = append(ex.queue, lit)
			if len(unlockKeys) > 0 {
				out := make([]absState, 0, len(in))
				for _, st := range in {
					ns := st.clone()
					ns.deferred = append(ns.deferred, unlockKeys...)
					out = append(out, ns)
				}
				return out
			}
			return in
		}
		// A deferred call to a helper whose summary releases locks
		// registers those releases as deferred.
		if ex.prog != nil {
			if sum, _ := ex.prog.summaryAndKey(ex.pass, s.Call); sum != nil && len(sum.releases) > 0 {
				bind := newSlotBinding(s.Call, nil)
				out := make([]absState, 0, len(in))
				for _, st := range in {
					ns := st.clone()
					for _, sl := range sum.releases {
						if key, ok := bind.resolve(sl); ok {
							ns.deferred = append(ns.deferred, key)
						}
					}
					out = append(out, ns)
				}
				return out
			}
		}
		ex.collectFuncLits(s.Call)
		return in

	case *ast.IfStmt:
		if s.Init != nil {
			in = ex.exec(s.Init, in, frames)
		}
		t, f := ex.evalCond(s.Cond, in)
		thenOut := ex.execBlock(s.Body, t, frames)
		elseOut := f
		if s.Else != nil {
			elseOut = ex.exec(s.Else, f, frames)
		}
		return mergeStates(thenOut, elseOut)

	case *ast.ForStmt:
		if s.Init != nil {
			in = ex.exec(s.Init, in, frames)
		}
		frame := &execFrame{isLoop: true}
		frame.entryHeld = entrySigs(in)
		bodyIn, exit := in, []absState(nil)
		if s.Cond != nil {
			bodyIn, exit = ex.evalCond(s.Cond, in)
		}
		bodyOut := ex.execBlock(s.Body, bodyIn, append(frames, frame))
		if s.Post != nil {
			bodyOut = ex.exec(s.Post, bodyOut, frames)
		}
		for _, st := range bodyOut {
			ex.checkIterEnd(st, frame, s.Body.End())
		}
		return mergeStates(exit, frame.breaks)

	case *ast.RangeStmt:
		ex.collectFuncLits(s.X)
		frame := &execFrame{isLoop: true}
		frame.entryHeld = entrySigs(in)
		bodyOut := ex.execBlock(s.Body, in, append(frames, frame))
		for _, st := range bodyOut {
			ex.checkIterEnd(st, frame, s.Body.End())
		}
		return mergeStates(in, frame.breaks) // zero iterations possible

	case *ast.SwitchStmt:
		if s.Init != nil {
			in = ex.exec(s.Init, in, frames)
		}
		ex.collectFuncLits(s.Tag)
		return ex.execClauses(s.Body, in, frames)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			in = ex.exec(s.Init, in, frames)
		}
		return ex.execClauses(s.Body, in, frames)

	case *ast.SelectStmt:
		return ex.execClauses(s.Body, in, frames)

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ex.collectFuncLits(r)
		}
		for _, st := range in {
			ex.recordExit(st, s.Pos(), s)
		}
		return nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if fr := innermost(frames, label, false); fr != nil {
				fr.breaks = append(fr.breaks, in...)
			}
			return nil
		case token.CONTINUE:
			if fr := innermost(frames, label, true); fr != nil {
				for _, st := range in {
					ex.checkIterEnd(st, fr, s.Pos())
				}
			}
			return nil
		default: // goto, fallthrough: abandon path tracking
			return nil
		}

	case *ast.LabeledStmt:
		// Attach the label to the statement's own frame by executing
		// it with a wrapper: loops read it via the frames stack.
		return ex.execLabeled(s, in, frames)

	case *ast.GoStmt:
		ex.collectFuncLits(s.Call)
		return in

	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				out, handled := ex.execCall(call, s.Lhs, in)
				if handled {
					for _, arg := range call.Args {
						ex.collectFuncLits(arg)
					}
					return out
				}
			}
		}
		for _, r := range s.Rhs {
			ex.collectFuncLits(r)
		}
		return in

	case *ast.DeclStmt:
		ex.collectFuncLits(s)
		return in

	case *ast.SendStmt:
		// The sent value can itself acquire: `ch <- l.LockContended()`
		// hands the lock to whoever reads the channel.
		if call, ok := s.Value.(*ast.CallExpr); ok {
			if out, handled := ex.execCall(call, nil, in); handled {
				for _, arg := range call.Args {
					ex.collectFuncLits(arg)
				}
				return out
			}
		}
		ex.collectFuncLits(s.Value)
		return in

	case *ast.IncDecStmt, *ast.EmptyStmt:
		ex.collectFuncLits(stmt)
		return in
	}
	ex.collectFuncLits(stmt)
	return in
}

// execLabeled executes a labeled loop so that labeled break/continue
// resolve to its frame.
func (ex *execEngine) execLabeled(s *ast.LabeledStmt, in []absState, frames []*execFrame) []absState {
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		if inner.Init != nil {
			in = ex.exec(inner.Init, in, frames)
		}
		frame := &execFrame{isLoop: true, label: s.Label.Name}
		frame.entryHeld = entrySigs(in)
		bodyIn, exit := in, []absState(nil)
		if inner.Cond != nil {
			bodyIn, exit = ex.evalCond(inner.Cond, in)
		}
		bodyOut := ex.execBlock(inner.Body, bodyIn, append(frames, frame))
		if inner.Post != nil {
			bodyOut = ex.exec(inner.Post, bodyOut, frames)
		}
		for _, st := range bodyOut {
			ex.checkIterEnd(st, frame, inner.Body.End())
		}
		return mergeStates(exit, frame.breaks)
	case *ast.RangeStmt:
		ex.collectFuncLits(inner.X)
		frame := &execFrame{isLoop: true, label: s.Label.Name}
		frame.entryHeld = entrySigs(in)
		bodyOut := ex.execBlock(inner.Body, in, append(frames, frame))
		for _, st := range bodyOut {
			ex.checkIterEnd(st, frame, inner.Body.End())
		}
		return mergeStates(in, frame.breaks)
	default:
		return ex.exec(s.Stmt, in, frames)
	}
}

// execClauses executes the case/comm clauses of a switch or select
// body independently and merges their exits (plus break exits, plus
// the fall-past states when no default clause guarantees entry).
func (ex *execEngine) execClauses(body *ast.BlockStmt, in []absState, frames []*execFrame) []absState {
	frame := &execFrame{}
	var outs [][]absState
	hasDefault := false
	for _, clause := range body.List {
		entry := in
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				entry = ex.exec(c.Comm, entry, frames) // recv/send stmt; no lock effects
			}
			stmts = c.Body
		}
		out := entry
		for _, st := range stmts {
			if len(out) == 0 {
				break
			}
			out = ex.exec(st, out, append(frames, frame))
		}
		outs = append(outs, out)
	}
	if !hasDefault {
		outs = append(outs, in)
	}
	outs = append(outs, frame.breaks)
	return mergeStates(outs...)
}

// deferredReleaseKeys returns the receiver keys of every trylock
// Unlock call in a deferred closure body.
func deferredReleaseKeys(pass *Pass, lit *ast.FuncLit) (unlocks []string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, isLock := trylockMethod(pass.Info, call); isLock && method == "Unlock" {
			unlocks = append(unlocks, exprKey(recv))
		}
		return true
	})
	return unlocks
}
