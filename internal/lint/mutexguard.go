package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// guardedPkgs are the packages whose shared state carries "guarded by"
// annotations: the cross-query page store, the site-health guard, the
// prepared-plan cache, the ADM layer, the
// view-answering layer (rewriter, workload recorder, selector), and the
// query server's aggregate counters.
var guardedPkgs = []string{
	"ulixes/internal/pagecache",
	"ulixes/internal/guard",
	"ulixes/internal/plancache",
	"ulixes/internal/adm",
	"ulixes/internal/vanswer",
	"ulixes/internal/workload",
	"ulixes/internal/vselect",
	"ulixes/internal/changefeed",
	"ulixes/internal/overload",
	"ulixes/internal/standing",
	"ulixes/cmd/ulixesd",
}

// guardedByRe extracts the mutex name from a field's doc or line comment:
// "guarded by mu" names a sibling field; "guarded by Guard.mu" names a
// mutex on another struct (the access then requires any held lock of that
// field name, the cross-object case).
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*\.)?([A-Za-z_][A-Za-z0-9_]*)`)

// MutexGuard enforces lock discipline on annotated fields: a field whose
// declaration carries a "// guarded by mu" comment may only be read or
// written while the named mutex is held, checked flow-sensitively through
// Lock/Unlock/defer-Unlock paths. Functions whose name ends in "Locked"
// declare the repo's caller-holds-the-lock convention and start in the
// held state.
var MutexGuard = &Analyzer{
	Name: "mutexguard",
	Doc: "fields annotated \"// guarded by mu\" must only be accessed with that\n" +
		"mutex held, flow-checked through Lock/Unlock and defer paths; helper\n" +
		"functions called with the lock held follow the *Locked naming\n" +
		"convention (deliberate lock-free access carries //lint:allow mutexguard)",
	Run: runMutexGuard,
}

// guardedField describes one annotated field.
type guardedField struct {
	// mutexField is the sibling mutex field name ("mu").
	mutexField string
	// crossType, when non-empty, names the struct owning the mutex for
	// cross-object annotations ("Guard.mu"): any held lock spelled
	// <var>.<mutexField> where <var> has that type satisfies the access.
	crossType string
}

func runMutexGuard(pass *Pass) {
	if !pathIsOneOf(pass.Pkg.PkgPath, guardedPkgs...) && !fixturePackage(pass.Pkg.PkgPath) {
		return
	}
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, body := enclosingFunc(n)
			if body == nil {
				return true
			}
			if fd, ok := fn.(*ast.FuncDecl); ok {
				checkMutexGuard(pass, fd, body, guarded)
				return true
			}
			// Function literals inherit no lock state; analyze standalone
			// only when they are goroutine bodies etc. — the enclosing
			// FuncDecl pass treats literals opaquely, so analyze each
			// literal pessimistically (locks must be taken inside).
			if _, ok := fn.(*ast.FuncLit); ok {
				checkMutexGuard(pass, nil, body, guarded)
				return true
			}
			return true
		})
	}
}

// collectGuardedFields finds the annotated fields of a package's structs.
func collectGuardedFields(pass *Pass) map[*types.Var]guardedField {
	out := map[*types.Var]guardedField{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				gf, ok := guardAnnotation(f)
				if !ok {
					continue
				}
				for _, name := range f.Names {
					if v, ok := pass.Pkg.Info.Defs[name].(*types.Var); ok {
						out[v] = gf
					}
				}
			}
			return true
		})
	}
	return out
}

func guardAnnotation(f *ast.Field) (guardedField, bool) {
	var texts []string
	if f.Doc != nil {
		texts = append(texts, f.Doc.Text())
	}
	if f.Comment != nil {
		texts = append(texts, f.Comment.Text())
	}
	for _, t := range texts {
		if m := guardedByRe.FindStringSubmatch(t); m != nil {
			return guardedField{
				mutexField: m[2],
				crossType:  strings.TrimSuffix(m[1], "."),
			}, true
		}
	}
	return guardedField{}, false
}

// lockFact is the set of held locks. Keys identify a lock as
// (root object, mutex field name); the root object is nil for package-level
// mutexes.
type lockKey struct {
	root  types.Object
	field string // "" when the mutex is the root object itself
}

type lockFact map[lockKey]bool

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

type lockClient struct {
	pass *Pass
}

func (c *lockClient) Entry() Fact { return lockFact{} }

func (c *lockClient) Join(a, b Fact) Fact {
	fa, fb := a.(lockFact), b.(lockFact)
	// Intersection: a lock is held after a join only when held on both
	// incoming paths.
	out := lockFact{}
	for k := range fa {
		if fb[k] {
			out[k] = true
		}
	}
	return out
}

func (c *lockClient) Equal(a, b Fact) bool {
	fa, fb := a.(lockFact), b.(lockFact)
	if len(fa) != len(fb) {
		return false
	}
	for k := range fa {
		if !fb[k] {
			return false
		}
	}
	return true
}

func (c *lockClient) Transfer(f Fact, n ast.Node) Fact {
	lf := f.(lockFact)
	out := lf
	cloned := false
	mut := func() lockFact {
		if !cloned {
			out = lf.clone()
			cloned = true
		}
		return out
	}
	// A RangeStmt node carries its whole body, but the body statements live
	// in their own CFG blocks — only the range expression executes here.
	scan := n
	if rs, ok := n.(*ast.RangeStmt); ok {
		scan = rs.X
	}
	ast.Inspect(scan, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // literals are their own scope
		}
		// A defer of Unlock does not release here; it releases at return,
		// after which no guarded access can occur. Skip the deferred call
		// so the lock stays held for the rest of the function.
		if _, ok := m.(*ast.DeferStmt); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key, ok := mutexKey(c.pass.Pkg, sel.X)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock":
			mut()[key] = true
		case "Unlock", "RUnlock":
			delete(mut(), key)
		}
		return true
	})
	return out
}

// mutexKey resolves the receiver expression of a Lock/Unlock call ("c.mu",
// "mu") to a lock key.
func mutexKey(pkg *Package, recv ast.Expr) (lockKey, bool) {
	switch x := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			return lockKey{}, false
		}
		return lockKey{root: obj}, true
	case *ast.SelectorExpr:
		root := rootObject(pkg, x.X)
		if root == nil {
			return lockKey{}, false
		}
		return lockKey{root: root, field: x.Sel.Name}, true
	}
	return lockKey{}, false
}

// checkMutexGuard flow-checks one function body.
func checkMutexGuard(pass *Pass, fd *ast.FuncDecl, body *ast.BlockStmt, guarded map[*types.Var]guardedField) {
	// Does the body touch any guarded field at all?
	touches := false
	ast.Inspect(body, func(n ast.Node) bool {
		if touches {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fobj := selectedField(pass.Pkg, sel); fobj != nil {
				if _, ok := guarded[fobj]; ok {
					touches = true
				}
			}
		}
		return true
	})
	if !touches {
		return
	}

	// The *Locked suffix convention: the caller holds the lock, so every
	// guarded access in this function is sanctioned.
	if fd != nil && strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}

	cfg := BuildCFG(body)
	client := &lockClient{pass: pass}
	res := cfg.Forward(client)

	var fnType *ast.FuncType
	if fd != nil {
		fnType = fd.Type
	}
	esc := Escapes(pass.Pkg, fnType, body)

	reported := map[ast.Node]bool{}
	cfg.EachFact(client, res, func(f Fact, n ast.Node) {
		lf := f.(lockFact)
		// Within one statement, Lock() may precede the access (e.g.
		// "c.mu.Lock(); return c.stats" split across nodes is fine, but
		// "func() { c.mu.Lock(); x := c.stats; ... }" in one node list is
		// conservative). Walk the node; on seeing a Lock call, update a
		// local copy so accesses after it in the same statement pass.
		local := lf.clone()
		walk := n
		if rs, ok := n.(*ast.RangeStmt); ok {
			// The body's statements are checked in their own blocks; only
			// the range expression executes at this node.
			walk = ast.Node(rs.X)
		}
		ast.Inspect(walk, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if key, ok := mutexKey(pass.Pkg, sel.X); ok {
						switch sel.Sel.Name {
						case "Lock", "RLock", "TryLock":
							local[key] = true
						case "Unlock", "RUnlock":
							delete(local, key)
						}
					}
				}
			}
			sel, ok := m.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fobj := selectedField(pass.Pkg, sel)
			if fobj == nil {
				return true
			}
			gf, ok := guarded[fobj]
			if !ok || reported[m] {
				return true
			}
			if guardSatisfied(pass.Pkg, body, sel, gf, local, esc) {
				return true
			}
			reported[m] = true
			pass.Reportf(sel.Sel.Pos(), "field %q (guarded by %s) accessed without holding the mutex; lock it, or mark the helper *Locked if the caller holds it", fobj.Name(), gf.mutexField)
			return true
		})
	})
}

// selectedField resolves a selector to the struct field object it reads or
// writes, or nil for method selections and package qualifiers.
func selectedField(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// guardSatisfied reports whether an access to a guarded field is sanctioned
// by the current lock set.
func guardSatisfied(pkg *Package, body *ast.BlockStmt, sel *ast.SelectorExpr, gf guardedField, locks lockFact, esc map[*types.Var]*EscapeInfo) bool {
	root := rootObject(pkg, sel.X)
	if gf.crossType != "" {
		// Cross-object annotation ("guarded by Guard.mu"): any held lock
		// of that field name on a variable of the named type satisfies it.
		for k := range locks {
			if k.field != gf.mutexField || k.root == nil {
				continue
			}
			if named := namedTypeOf(k.root.Type()); named == gf.crossType {
				return true
			}
		}
		return false
	}
	// Sibling annotation: the access root's own mutex must be held.
	if root != nil && locks[lockKey{root: root, field: gf.mutexField}] {
		return true
	}
	// Construction-time initialization: an object built by this function
	// that never escapes — or escapes only by being returned, after all
	// statements ran — cannot be shared while the function accesses it, so
	// those accesses are lock-free by nature (the escape lattice's local
	// class, plus the return-only constructor pattern). Parameters,
	// receivers and captured variables are declared outside the body span
	// and never qualify.
	if v, ok := root.(*types.Var); ok && !v.IsField() && v.Pos() >= body.Pos() && v.Pos() < body.End() {
		info, tracked := esc[v]
		if !tracked || info.Class == EscLocal {
			return true
		}
		returnOnly := true
		for _, site := range info.Sites {
			if _, ok := site.(*ast.ReturnStmt); !ok {
				returnOnly = false
				break
			}
		}
		if returnOnly {
			return true
		}
	}
	return false
}

// namedTypeOf returns the name of a (possibly pointered) named type.
func namedTypeOf(t types.Type) string {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x.Obj().Name()
		default:
			return ""
		}
	}
}
