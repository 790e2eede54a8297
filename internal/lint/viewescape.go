package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// viewPkgs are the packages whose hot paths hand out zero-copy views with
// generational validity: the lexer's token attrs alias a buffer reused by
// the next Next call, pooled key buffers are recycled by Put, and
// TrustedTuple wraps caller slices without copying.
var viewPkgs = []string{
	"ulixes/internal/hypertext",
	"ulixes/internal/nested",
}

// ViewEscape enforces the generational-validity contracts of the
// allocation-lean hot path, flow-sensitively:
//
//   - a Lexer token's Attrs slice is valid only until the next Next call on
//     the same lexer: it must not be used after that call, returned, or
//     stored into a heap structure without copying first;
//   - a pooled buffer (sync.Pool Get, getKeyBuf) must not be used after it
//     is Put back, nor escape the function that borrowed it;
//   - slices handed to TrustedTuple are shared with the tuple and must not
//     be mutated afterwards.
var ViewEscape = &Analyzer{
	Name: "viewescape",
	Doc: "zero-copy views (lexer token attrs, pooled buffers, TrustedTuple\n" +
		"shared slices) obey generational validity: no use after the next\n" +
		"Next/Put call, no storing into heap structures, no returning to\n" +
		"callers, no mutating a slice a TrustedTuple shares (copy first, or\n" +
		"document an exemption with //lint:allow viewescape)",
	Run: runViewEscape,
}

func runViewEscape(pass *Pass) {
	if !pathIsOneOf(pass.Pkg.PkgPath, viewPkgs...) && !fixturePackage(pass.Pkg.PkgPath) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			_, body := enclosingFunc(n)
			if body == nil {
				return true
			}
			checkViewEscape(pass, body)
			return true
		})
	}
}

// viewState is one variable's view classification.
type viewState struct {
	// src identifies the view's source generation owner: the lexer
	// variable for token views, the buffer's own variable for pooled
	// buffers. Invalidation is keyed on it.
	src types.Object
	// token marks a lexer token (its Attrs field is the dirty part; Tag,
	// Text and Kind project clean values). Non-token views are wholly
	// dirty (pooled buffers and slices derived from either).
	token bool
	// stale marks a view whose generation has ended (the source's Next or
	// Put ran); any subsequent use is a violation.
	stale bool
	// staleBy names the invalidating call for the diagnostic.
	staleBy string
}

// viewFact maps variables to their view state, plus the set of slices
// frozen by TrustedTuple.
type viewFact struct {
	views  map[*types.Var]viewState
	frozen map[*types.Var]bool
}

func newViewFact() *viewFact {
	return &viewFact{views: map[*types.Var]viewState{}, frozen: map[*types.Var]bool{}}
}

func (f *viewFact) clone() *viewFact {
	out := newViewFact()
	for v, s := range f.views {
		out.views[v] = s
	}
	for v := range f.frozen {
		out.frozen[v] = true
	}
	return out
}

type viewClient struct {
	pass *Pass
}

func (c *viewClient) Entry() Fact { return newViewFact() }

func (c *viewClient) Join(a, b Fact) Fact {
	fa, fb := a.(*viewFact), b.(*viewFact)
	out := fa.clone()
	for v, sb := range fb.views {
		if sa, ok := out.views[v]; ok {
			// stale on either path → stale.
			if sb.stale && !sa.stale {
				out.views[v] = sb
			}
		} else {
			out.views[v] = sb
		}
	}
	for v := range fb.frozen {
		out.frozen[v] = true
	}
	return out
}

func (c *viewClient) Equal(a, b Fact) bool {
	fa, fb := a.(*viewFact), b.(*viewFact)
	if len(fa.views) != len(fb.views) || len(fa.frozen) != len(fb.frozen) {
		return false
	}
	for v, sa := range fa.views {
		sb, ok := fb.views[v]
		if !ok || sa != sb {
			return false
		}
	}
	for v := range fa.frozen {
		if !fb.frozen[v] {
			return false
		}
	}
	return true
}

func (c *viewClient) Transfer(f Fact, n ast.Node) Fact {
	vf := f.(*viewFact).clone()
	pkg := c.pass.Pkg

	// Invalidations and freezes from any call inside the node. A RangeStmt
	// node carries its whole body, but the body statements live in their own
	// CFG blocks — only the range expression executes "at" this node.
	scan := ast.Node(n)
	if rs, ok := n.(*ast.RangeStmt); ok {
		scan = rs.X
	}
	ast.Inspect(scan, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		// A deferred Put runs at return, after every use in the body; the
		// view stays valid for the rest of the function.
		if _, ok := m.(*ast.DeferStmt); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isLexerNext(pkg, call):
			recv := callReceiverObject(pkg, call)
			if recv == nil {
				return true
			}
			for v, s := range vf.views {
				if s.src == recv && !s.stale {
					s.stale = true
					s.staleBy = "the next Next call"
					vf.views[v] = s
				}
			}
		case isPoolPutCall(pkg, call):
			if len(call.Args) >= 1 {
				if obj := rootObject(pkg, call.Args[0]); obj != nil {
					src := obj
					if s, ok := vf.views[obj.(*types.Var)]; ok {
						src = s.src
					}
					for v, s := range vf.views {
						if s.src == src && !s.stale {
							s.stale = true
							s.staleBy = "Put returning it to the pool"
							vf.views[v] = s
						}
					}
				}
			}
		case isTrustedTupleCall(pkg, call):
			for _, arg := range call.Args {
				if v := rootVarOf(pkg, arg); v != nil && isSliceVar(v) {
					vf.frozen[v] = true
				}
			}
		}
		return true
	})

	// Definitions: assignments create, launder, or propagate views.
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.transferAssign(vf, s)
	case *ast.RangeStmt:
		// for _, a := range view: elements of an Attr slice are value
		// copies — clean; clear any prior view state of key/value vars.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if id, ok := e.(*ast.Ident); ok {
				if v := identVar(c.pass.Pkg, id); v != nil {
					delete(vf.views, v)
					delete(vf.frozen, v)
				}
			}
		}
	}
	return vf
}

// transferAssign updates view state for one assignment.
func (c *viewClient) transferAssign(vf *viewFact, as *ast.AssignStmt) {
	pkg := c.pass.Pkg

	// tok.Attrs = <clean>: laundering the dirty component cleans the token.
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr); ok && sel.Sel.Name == "Attrs" {
			if v := rootVarOf(pkg, sel.X); v != nil {
				if s, ok := vf.views[v]; ok && s.token && !s.stale {
					if w, _ := c.exprView(vf, as.Rhs[0]); w == nil {
						delete(vf.views, v)
						return
					}
				}
			}
		}
	}

	// Single call producing a view: tok, ok, err := l.Next() / b := getKeyBuf().
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if isLexerNext(pkg, call) {
				if recv := callReceiverObject(pkg, call); recv != nil && len(as.Lhs) >= 1 {
					if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if v := identVar(pkg, id); v != nil {
							vf.views[v] = viewState{src: recv, token: true}
						}
					}
				}
				// Remaining results (ok, err) are clean.
				for _, lhs := range as.Lhs[1:] {
					c.clearLHS(vf, lhs)
				}
				return
			}
			if isPoolGetCall(pkg, call) && len(as.Lhs) >= 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if v := identVar(pkg, id); v != nil {
						vf.views[v] = viewState{src: v}
					}
				}
				return
			}
		}
	}

	// Tuple-call assignment (k, null, err := f(view)): only the results with
	// aliasable (slice/pointer) types can carry the view; a bool or error
	// result is clean however tainted the arguments were.
	var tupleTypes *types.Tuple
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if tv, ok := pkg.Info.Types[call]; ok {
				tupleTypes, _ = tv.Type.(*types.Tuple)
			}
		}
	}

	// General propagation: each LHS var inherits the RHS expression's view.
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue // stores handled by the violation pass
		}
		v := identVar(pkg, id)
		if v == nil {
			continue
		}
		if rhs == nil {
			delete(vf.views, v)
			delete(vf.frozen, v)
			continue
		}
		src, token := c.exprView(vf, rhs)
		if src != nil && tupleTypes != nil && i < tupleTypes.Len() {
			switch tupleTypes.At(i).Type().Underlying().(type) {
			case *types.Slice, *types.Pointer:
				// aliasable result: keeps the view
			default:
				src = nil
			}
		}
		if src != nil {
			vf.views[v] = viewState{src: src, token: token}
			delete(vf.frozen, v)
		} else {
			// Rebinding to a clean value launders the variable —
			// including a frozen slice rebound to a fresh backing array.
			if rv := rootVarOf(pkg, rhs); rv == nil || !vf.frozen[rv] {
				delete(vf.frozen, v)
			} else {
				vf.frozen[v] = true // alias of a frozen slice stays frozen
			}
			delete(vf.views, v)
		}
	}
}

func (c *viewClient) clearLHS(vf *viewFact, lhs ast.Expr) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if v := identVar(c.pass.Pkg, id); v != nil {
			delete(vf.views, v)
			delete(vf.frozen, v)
		}
	}
}

// exprView reports whether an expression evaluates to a (live or stale)
// view: the source generation owner and whether it is a token view. A nil
// src means the expression is clean.
func (c *viewClient) exprView(vf *viewFact, e ast.Expr) (src types.Object, token bool) {
	pkg := c.pass.Pkg
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := identVar(pkg, x); v != nil {
			if s, ok := vf.views[v]; ok {
				return s.src, s.token
			}
		}
	case *ast.SelectorExpr:
		if v := rootVarOf(pkg, x.X); v != nil {
			if s, ok := vf.views[v]; ok && s.token {
				if x.Sel.Name == "Attrs" {
					return s.src, false // the dirty slice itself
				}
				return nil, false // Tag/Text/Kind project clean values
			}
			if s, ok := vf.views[v]; ok && !s.token {
				return s.src, false
			}
		}
	case *ast.StarExpr:
		return c.exprView(vf, x.X)
	case *ast.UnaryExpr:
		return c.exprView(vf, x.X)
	case *ast.SliceExpr:
		return c.exprView(vf, x.X)
	case *ast.IndexExpr:
		// An element load copies the element value (Attr structs, bytes):
		// clean.
		return nil, false
	case *ast.CallExpr:
		return c.callView(vf, x)
	}
	return nil, false
}

// callView classifies a call expression's (first) result.
func (c *viewClient) callView(vf *viewFact, call *ast.CallExpr) (types.Object, bool) {
	pkg := c.pass.Pkg
	// Builtin append aliases only its first argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "append":
				if len(call.Args) > 0 {
					return c.exprView(vf, call.Args[0])
				}
				return nil, false
			default:
				return nil, false // len, cap, copy, make, new: clean
			}
		}
		// Conversions: string(x) copies; slice conversions alias.
		if tv, ok := pkg.Info.Types[id]; ok && tv.IsType() {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice && len(call.Args) == 1 {
				return c.exprView(vf, call.Args[0])
			}
			return nil, false
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion through a parenthesized or selector type name.
		if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice && len(call.Args) == 1 {
			return c.exprView(vf, call.Args[0])
		}
		return nil, false
	}
	// A function that receives a view and returns an aliasable (slice or
	// pointer) result is treated as deriving a view from it — the
	// append-style helper pattern (appendKey, appendJoinKey).
	aliasable := func(t types.Type) bool {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Pointer:
			return true
		}
		return false
	}
	if tv, ok := pkg.Info.Types[call]; ok {
		resType := tv.Type
		if tup, ok := resType.(*types.Tuple); ok && tup.Len() > 0 {
			resType = tup.At(0).Type()
		}
		if !aliasable(resType) {
			return nil, false
		}
	}
	for _, arg := range call.Args {
		if src, token := c.exprView(vf, arg); src != nil {
			return src, token
		}
	}
	return nil, false
}

// checkViewEscape analyzes one function body.
func checkViewEscape(pass *Pass, body *ast.BlockStmt) {
	// Fast path: any view source present?
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if isLexerNext(pass.Pkg, call) || isPoolGetCall(pass.Pkg, call) || isTrustedTupleCall(pass.Pkg, call) {
				found = true
			}
		}
		return true
	})
	if !found {
		return
	}

	cfg := BuildCFG(body)
	client := &viewClient{pass: pass}
	res := cfg.Forward(client)

	reported := map[ast.Node]bool{}
	report := func(n ast.Node, format string, args ...interface{}) {
		if !reported[n] {
			reported[n] = true
			pass.Reportf(n.Pos(), format, args...)
		}
	}

	cfg.EachFact(client, res, func(f Fact, n ast.Node) {
		vf := f.(*viewFact)
		checkViewNode(pass, client, vf, n, report)
	})
}

// checkViewNode reports the violations visible at one CFG node given the
// fact holding before it.
func checkViewNode(pass *Pass, client *viewClient, vf *viewFact, n ast.Node, report func(ast.Node, string, ...interface{})) {
	pkg := pass.Pkg

	// Defined-at-this-node identifiers are not uses.
	defined := map[*ast.Ident]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				defined[id] = true
			}
		}
	}
	walk := ast.Node(n)
	if rs, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok {
				defined[id] = true
			}
		}
		// Only the range expression executes at this node; the body's
		// statements are checked in their own blocks with their own facts.
		walk = rs.X
	}

	ast.Inspect(walk, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			// A literal capturing a live view is only a violation when the
			// literal escapes the generation (go statement); plain local
			// closures are analyzed as their own scope and the capture is
			// visible to the enclosing generation checks.
			return false

		case *ast.Ident:
			if defined[x] {
				return true
			}
			v := identVar(pkg, x)
			if v == nil {
				return true
			}
			if s, ok := vf.views[v]; ok && s.stale {
				report(x, "zero-copy view %q is used after %s invalidated it; copy the data out before the generation ends", v.Name(), s.staleBy)
			}

		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if src, _ := client.exprView(vf, r); src != nil {
					report(r, "a zero-copy view is returned to the caller; it aliases a buffer that the next Next/Put call reuses — copy it first")
				}
			}

		case *ast.SendStmt:
			if src, _ := client.exprView(vf, x.Value); src != nil {
				report(x, "a zero-copy view is sent on a channel; the receiver outlives the view's generation — copy it first")
			}

		case *ast.GoStmt:
			// Captured views cross goroutine lifetimes.
			ast.Inspect(x.Call, func(k ast.Node) bool {
				if id, ok := k.(*ast.Ident); ok {
					if v := identVar(pkg, id); v != nil {
						if _, isView := vf.views[v]; isView {
							report(id, "zero-copy view %q is captured by a goroutine; its generation can end while the goroutine still runs — copy it first", v.Name())
						}
					}
				}
				return true
			})
			return false

		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				var rhs ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				lu := ast.Unparen(lhs)
				// Mutating a frozen (TrustedTuple-shared) slice element.
				if ix, ok := lu.(*ast.IndexExpr); ok {
					if v := rootVarOf(pkg, ix.X); v != nil && vf.frozen[v] {
						report(lhs, "slice %q was handed to TrustedTuple and is shared with the tuple; writing %s[i] corrupts tuples already built from it", v.Name(), v.Name())
					}
				}
				if rhs == nil {
					continue
				}
				src, _ := client.exprView(vf, rhs)
				if src == nil {
					continue
				}
				switch l := lu.(type) {
				case *ast.Ident:
					// Plain rebinding of a local is handled by Transfer; a
					// package-level variable is heap storage.
					if v := identVar(pkg, l); v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						report(x, "a zero-copy view is stored into a heap structure; it aliases a buffer the next Next/Put call reuses — copy it first")
					}
				case *ast.StarExpr:
					// *b = ... : writing through the view itself is the
					// sanctioned buffer-extend pattern when both sides
					// belong to the same generation.
					if lv := rootVarOf(pkg, l.X); lv != nil {
						if s, ok := vf.views[lv]; ok && s.src == src {
							continue
						}
					}
					report(x, "a zero-copy view is stored through a pointer; it outlives its generation — copy it first")
				default:
					report(x, "a zero-copy view is stored into a heap structure; it aliases a buffer the next Next/Put call reuses — copy it first")
				}
			}

		case *ast.CallExpr:
			// append(dst, view) retains the view (a Token element carries its
			// aliasing Attrs header; a view slice as an element shares its
			// backing array). append(dst, view...) is different: a spread
			// copies the element VALUES into dst — that is the laundering
			// idiom append([]Attr(nil), tok.Attrs...) and is clean.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok && obj.Name() == "append" {
					args := x.Args[1:]
					if x.Ellipsis.IsValid() && len(args) > 0 {
						args = args[:len(args)-1]
					}
					for _, arg := range args {
						if src, _ := client.exprView(vf, arg); src != nil {
							report(arg, "a zero-copy view is appended into a longer-lived slice; copy it first (e.g. append a fresh copy of the attrs)")
						}
					}
				}
			}
			// Mutating a frozen slice via append(frozen, ...).
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok && obj.Name() == "append" && len(x.Args) > 0 {
					if v := rootVarOf(pkg, x.Args[0]); v != nil && vf.frozen[v] {
						report(x, "slice %q was handed to TrustedTuple and is shared with the tuple; appending may write into the shared backing array — rebind to a fresh slice instead", v.Name())
					}
				}
			}
		}
		return true
	})
}

// --- source recognizers ----------------------------------------------------

// callReceiverObject resolves the receiver expression of a method call
// ("l.Next()" → the object for l), or nil.
func callReceiverObject(pkg *Package, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return rootObject(pkg, sel.X)
}

// isLexerNext reports a call of the Next method on a *Lexer-named type: the
// generational token source.
func isLexerNext(pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg, call)
	if obj == nil || !isMethod(obj) || obj.Name() != "Next" {
		return false
	}
	return strings.Contains(recvNamed(obj), "Lexer")
}

// isPoolGetCall matches pooled-buffer borrows: (*sync.Pool).Get and the
// repo's getKeyBuf-style wrappers (unexported functions named get*Buf).
func isPoolGetCall(pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg, call)
	if obj == nil {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Get" && isMethod(obj) {
		return true
	}
	name := obj.Name()
	return !isMethod(obj) && strings.HasPrefix(name, "get") && strings.HasSuffix(name, "Buf")
}

// isPoolPutCall matches pooled-buffer returns: (*sync.Pool).Put and
// put*Buf wrappers.
func isPoolPutCall(pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg, call)
	if obj == nil {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Put" && isMethod(obj) {
		return true
	}
	name := obj.Name()
	return !isMethod(obj) && strings.HasPrefix(name, "put") && strings.HasSuffix(name, "Buf")
}

// isTrustedTupleCall matches the zero-copy tuple constructor.
func isTrustedTupleCall(pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg, call)
	return obj != nil && obj.Name() == "TrustedTuple" && !isMethod(obj)
}

// rootVarOf resolves an expression's root to a variable, or nil.
func rootVarOf(pkg *Package, e ast.Expr) *types.Var {
	if obj := rootObject(pkg, e); obj != nil {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	return nil
}

// identVar resolves an identifier to its variable object.
func identVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// isSliceVar reports whether a variable has slice type.
func isSliceVar(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Slice)
	return ok
}
