// The hotalloc analyzer: no hidden heap allocation on traversal and
// validation hot paths.
//
// The lists' performance argument (and the arena work in internal/mem)
// rests on the hot paths — traversals, window location, validation,
// lock acquisition — allocating nothing: at millions of operations per
// second even one small allocation per operation turns the GC into the
// bottleneck the paper's contention analysis never priced. The
// analyzer flags the three allocation shapes that creep into such
// functions:
//
//   - address-taken composite literals (&T{...}), which escape to the
//     heap when the pointer outlives the frame;
//   - new(T) calls, the same allocation spelled differently;
//   - function literals capturing variables of the enclosing function,
//     which force both the closure and the captured variable into the
//     heap.
//
// A function is "hot" when its name is one of the traversal/validation
// verbs the implementations share (contains, insert, remove, traverse,
// find, validate, search, locate) or starts with "lock" (lockWindow,
// lockNextAt, ...). Matching is case-insensitive on the declared name,
// so Contains and contains are both covered.
//
// Value composite literals that are not address-taken (obs.Escalator{}
// and friends) stay on the stack and are deliberately not flagged.
// Intentional allocations — an insert has to materialize its node
// somewhere — are silenced the usual way:
//
//	//lint:ignore hotalloc the insert path must allocate the new node
//
// Test files are exempt: their loops are not measured hot paths.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc is the hot-path allocation analyzer.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no hidden heap allocation in traversal/validation hot-path functions",
	Run:  runHotAlloc,
}

// hotNames are the traversal/validation verbs that make a function a
// measured hot path, lowercased.
var hotNames = map[string]bool{
	"contains": true,
	"insert":   true,
	"remove":   true,
	"traverse": true,
	"find":     true,
	"validate": true,
	"search":   true,
	"locate":   true,
	// The batch surface's one-pass traversals (DESIGN.md §13): a batch
	// amortizes k operations, so a hidden allocation per window costs
	// k times less than in a point op — but the whole point of the
	// pooled scratch buffers is that steady state allocates nothing.
	"insertall":   true,
	"removeall":   true,
	"containsall": true,
	"rangescan":   true,
	// The sharded façade (DESIGN.md §8): shardOf is the routing
	// decision, taken on every operation, so a hidden allocation there
	// taxes every shard.
	"shardof": true,
	// The skip lists' entry points (DESIGN.md §15): tower
	// materialization, index maintenance, the per-level descents and
	// the finger-seeded batch passes all run on the measured path — a
	// hidden allocation in any of them multiplies by the operation
	// rate exactly like a flat list's.
	"newtower":        true,
	"alloctower":      true,
	"randomheight":    true,
	"linkindex":       true,
	"sweep":           true,
	"tryunlinklevel":  true,
	"findpredatlevel": true,
	"findfrom":        true,
	"descendto":       true,
	"insertfrom":      true,
	"removefrom":      true,
}

// methodHotNames are set-surface verbs that mark a hot path only when
// declared as a method: a plain function named Load (the analysis
// package's loader, say) is not a set traversal, but a set's
// Load/Ascend walks the structure like any other hot path.
var methodHotNames = map[string]bool{
	"load":   true,
	"ascend": true,
}

// hotFunc reports whether the declaration marks a hot path.
func hotFunc(fn *ast.FuncDecl) bool {
	lower := strings.ToLower(fn.Name.Name)
	if hotNames[lower] || strings.HasPrefix(lower, "lock") {
		return true
	}
	return fn.Recv != nil && methodHotNames[lower]
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hotFunc(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
}

// checkHotFunc walks one hot function's body for the three allocation
// shapes.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if cl, ok := compositeAddr(e); ok {
				pass.Reportf(e.Pos(), "&%s{...} allocates on the hot path %s; hoist it out or draw the node from the arena (internal/mem)",
					typeName(pass, cl), fn.Name.Name)
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" &&
				pass.Info.Uses[id] == types.Universe.Lookup("new") && len(e.Args) == 1 {
				pass.Reportf(e.Pos(), "new(%s) allocates on the hot path %s; hoist it out or draw the node from the arena (internal/mem)",
					typeName(pass, e.Args[0]), fn.Name.Name)
			}
		case *ast.FuncLit:
			if captured := captures(pass, e, fn); captured != "" {
				pass.Reportf(e.Pos(), "closure captures %s, forcing heap allocation on the hot path %s; pass it as a parameter or hoist the closure",
					captured, fn.Name.Name)
			}
			return false // inner literals are the closure's problem, not fn's
		}
		return true
	})
}

// compositeAddr matches &T{...}.
func compositeAddr(e *ast.UnaryExpr) (*ast.CompositeLit, bool) {
	if e.Op.String() != "&" {
		return nil, false
	}
	cl, ok := e.X.(*ast.CompositeLit)
	return cl, ok
}

// typeName renders the allocated type for the message, best-effort.
func typeName(pass *Pass, e ast.Expr) string {
	var typ ast.Expr = e
	if cl, ok := e.(*ast.CompositeLit); ok {
		typ = cl.Type
	}
	if typ == nil {
		return "T"
	}
	if t := pass.Info.TypeOf(typ); t != nil {
		s := t.String()
		// Trim the module path down to pkg.Type for readability.
		if i := strings.LastIndexByte(s, '/'); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	return "T"
}

// captures returns the name of a variable the function literal captures
// from the enclosing function fn ("" when it captures nothing): an
// identifier used inside lit whose object is declared inside fn but
// outside lit.
func captures(pass *Pass, lit *ast.FuncLit, fn *ast.FuncDecl) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		pos := obj.Pos()
		declaredInFn := pos >= fn.Pos() && pos < fn.End()
		declaredInLit := pos >= lit.Pos() && pos < lit.End()
		if declaredInFn && !declaredInLit {
			found = obj.Name()
			return false
		}
		return true
	})
	return found
}
