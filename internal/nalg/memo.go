package nalg

import (
	"hash/maphash"
	"maps"
	"reflect"
	"slices"
	"sync/atomic"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// Memo is the plan memo of one optimization run. Every expression handed to
// it is interned structurally — operator payload plus the identities of the
// interned children — so a distinct subexpression exists once, however many
// candidate plans contain it, and what is known about it is computed once:
//
//   - its inferred schema (or the reason it does not type-check);
//   - its canonical key, the plan's rendering with the per-atom alias
//     prefixes normalised to their order of first appearance.
//
// Nodes carry a dense ID so that other layers (the cost model's estimates,
// the rewriter's per-phase variants) keep what they memoise in slices
// indexed by it. Interned expressions are ordinary immutable Expr trees
// that do not refer back to the memo. A Memo is not safe for concurrent
// use.
type Memo struct {
	ws   *adm.Scheme
	seed maphash.Seed
	tag  uint64 // this memo's mark on the expressions it allocates

	byID       []*Node
	nodeSet    ordinalSet // node IDs by payload + children
	payload    []*payload // distinct operator payloads, by ID
	payloadSet ordinalSet
	opaque     map[Expr]*Node // nodes of types the memo does not know

	blocks   *colBlocks
	inferred int

	// Canonical-key interning (see Key).
	keys    [][]byte
	keySet  ordinalSet
	keyBuf  []byte
	atomBuf []string

	// What the memo allocates per node lives exactly as long as the memo,
	// so it is carved out of slabs rather than allocated piecemeal.
	nodes    Slab[Node]
	atoms    Slab[string]
	keyBytes Slab[byte]
}

// memoRef marks an expression node as allocated by a memo, under an ID. A
// memo sets it on the nodes it allocates, before anything else can see
// them, and finds its own nodes again by it; it is two integers, so an
// interned plan outlives its memo without holding on to it.
type memoRef struct {
	memo uint64
	id   int32
}

// memoTags numbers memos from 1; 0 marks a node no memo allocated.
var memoTags atomic.Uint64

// payload is one distinct operator payload (a node without its children),
// represented by the first expression seen carrying it.
type payload struct {
	expr Expr

	// The payload's part of a canonical key (see Key): its rendered pieces
	// with atoms numbered in their order within the payload.
	keyed bool
	key   int32
	atoms []string
}

// NewMemo creates an empty memo over a web scheme.
func NewMemo(ws *adm.Scheme) *Memo {
	return &Memo{
		ws:     ws,
		seed:   maphash.MakeSeed(),
		tag:    memoTags.Add(1),
		blocks: newColBlocks(),
	}
}

// Slab hands out pieces of large chunks, for values that all die together:
// what a memo, and the layers that key their own results by its node IDs,
// record per node lives exactly as long as the memo.
type Slab[T any] struct {
	free  []T
	chunk int
}

// Take returns a zeroed slice of length n with no spare capacity.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.free) {
		// Chunks double up to a cap, so a small plan search stays small.
		s.chunk = min(max(64, 2*s.chunk), 8192)
		s.free = make([]T, max(n, s.chunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// ordinalSet is an open-addressed hash set of ordinals — indices into a
// slice its user keeps — found by a hash and the user's notion of equality.
// A slot holds the upper half of the hash above ordinal+1, so a probe looks
// at the user's data only on a likely match.
type ordinalSet struct {
	slots []uint64
	n     int
}

// find returns the ordinal stored under hash h that same accepts, or -1.
func (s *ordinalSet) find(h uint64, same func(ord int) bool) int {
	if len(s.slots) == 0 {
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	for i := h >> 32 & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if slot := s.slots[i]; slot>>32 == h>>32 && same(int(uint32(slot))-1) {
			return int(uint32(slot)) - 1
		}
	}
	return -1
}

// add stores an ordinal that find did not return under hash h.
func (s *ordinalSet) add(h uint64, ord int) {
	if s.n++; 2*s.n > len(s.slots) {
		old := s.slots
		s.slots = make([]uint64, max(64, 2*len(old)))
		for _, slot := range old {
			if slot != 0 {
				s.put(slot)
			}
		}
	}
	s.put(h>>32<<32 | uint64(ord+1))
}

func (s *ordinalSet) put(slot uint64) {
	mask := uint64(len(s.slots) - 1)
	i := slot >> 32 & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = slot
}

// Node is what a memo knows about one interned expression.
type Node struct {
	expr    Expr
	kids    [2]*Node
	id      int32
	payload int32 // -1 for a node type the memo does not know
	nk      uint8

	typed  bool
	keyed  bool
	key    int32
	schema *Schema // nil when typed and ill-typed; may be a child's
	own    Schema  // backing store of schema when the operator changes it
	err    error
	atoms  []string // distinct alias atoms in order of first appearance
}

// Expr returns the interned expression: the one representative of its
// structure in the memo, whose children are interned too.
func (n *Node) Expr() Expr { return n.expr }

// ID returns the node's index in interning order, dense from 0.
func (n *Node) ID() int { return int(n.id) }

// Kids returns the nodes of the expression's children.
func (n *Node) Kids() []*Node { return n.kids[:n.nk] }

// Len returns the number of distinct expressions interned so far.
func (m *Memo) Len() int { return len(m.byID) }

// Inferred returns how many schema inferences the memo has run; never more
// than Len, since each node is inferred at most once.
func (m *Memo) Inferred() int { return m.inferred }

// Node interns e, and its subexpressions, and returns its node.
func (m *Memo) Node(e Expr) *Node {
	meta := metaOf(e)
	if meta != nil && meta.ref.memo == m.tag {
		return m.byID[meta.ref.id]
	}
	var kids [2]*Node
	switch x := e.(type) {
	case *Unnest:
		kids[0] = m.Node(x.In)
	case *Follow:
		kids[0] = m.Node(x.In)
	case *Select:
		kids[0] = m.Node(x.In)
	case *Project:
		kids[0] = m.Node(x.In)
	case *Rename:
		kids[0] = m.Node(x.In)
	case *Join:
		kids[0], kids[1] = m.Node(x.L), m.Node(x.R)
	case *EntryScan:
	default:
		// A node type the memo does not know, or one that carries no mark,
		// is interned by identity.
		n, ok := m.opaque[e]
		if !ok {
			if m.opaque == nil {
				m.opaque = make(map[Expr]*Node)
			}
			n = m.newNode(e, -1, kids)
			m.opaque[e] = n
		}
		return n
	}
	return m.intern(e, m.payloadOf(e), kids)
}

// WithKid returns the node of n's operator applied to n's children with
// the i-th replaced: what a rewrite of that child turns n into when it
// renames no column n refers to.
func (m *Memo) WithKid(n *Node, i int, kid *Node) *Node {
	kids := n.kids
	kids[i] = kid
	return m.intern(n.expr, n.payload, kids)
}

// intern returns the node of the operator payload (which e carries) over
// the given children, allocating the expression and the node when new.
func (m *Memo) intern(e Expr, payload int32, kids [2]*Node) *Node {
	// The key is three small integers; any odd multipliers spread them.
	h := uint64(payload+1) * 0x9e3779b97f4a7c15
	for _, k := range kids {
		if k != nil {
			h = (h ^ uint64(k.id+1)) * 0xff51afd7ed558ccd
		}
	}
	h ^= h >> 29
	if at := m.nodeSet.find(h, func(ord int) bool {
		n := m.byID[ord]
		return n.payload == payload && n.kids == kids
	}); at >= 0 {
		return m.byID[at]
	}
	n := m.newNode(cloneOver(e, kids, memoRef{memo: m.tag, id: int32(len(m.byID))}), payload, kids)
	m.nodeSet.add(h, int(n.id))
	return n
}

func (m *Memo) newNode(e Expr, payload int32, kids [2]*Node) *Node {
	n := &m.nodes.Take(1)[0]
	n.expr, n.id, n.payload, n.kids = e, int32(len(m.byID)), payload, kids
	for _, k := range kids {
		if k != nil {
			n.nk++
		}
	}
	m.byID = append(m.byID, n)
	return n
}

// payloadOf interns e's operator payload.
func (m *Memo) payloadOf(e Expr) int32 {
	h := m.hashPayload(e)
	at := m.payloadSet.find(h, func(ord int) bool { return samePayload(m.payload[ord].expr, e) })
	if at < 0 {
		at = len(m.payload)
		m.payloadSet.add(h, at)
		m.payload = append(m.payload, &payload{expr: e})
	}
	return int32(at)
}

// cloneOver allocates e's operator over the given children, marked as the
// memo's.
func cloneOver(e Expr, kids [2]*Node, ref memoRef) Expr {
	switch x := e.(type) {
	case *EntryScan:
		return &EntryScan{Scheme: x.Scheme, URL: x.URL, Alias: x.Alias, meta: nodeMeta{ref: ref}}
	case *Unnest:
		return &Unnest{In: kids[0].expr, Attr: x.Attr, meta: nodeMeta{ref: ref}}
	case *Follow:
		return &Follow{In: kids[0].expr, Link: x.Link, Target: x.Target, Alias: x.Alias, meta: nodeMeta{ref: ref}}
	case *Select:
		return &Select{In: kids[0].expr, Pred: x.Pred, meta: nodeMeta{ref: ref}}
	case *Project:
		return &Project{In: kids[0].expr, Cols: x.Cols, meta: nodeMeta{ref: ref}}
	case *Rename:
		return &Rename{In: kids[0].expr, Map: x.Map, meta: nodeMeta{ref: ref}}
	case *Join:
		return &Join{L: kids[0].expr, R: kids[1].expr, Conds: x.Conds, meta: nodeMeta{ref: ref}}
	}
	panic("nalg: cloneOver of a node type the memo does not intern")
}

// hashPayload hashes a node's kind and operator payload.
func (m *Memo) hashPayload(e Expr) uint64 {
	var h maphash.Hash
	h.SetSeed(m.seed)
	str := func(s string) {
		h.WriteString(s)
		h.WriteByte(0)
	}
	switch x := e.(type) {
	case *EntryScan:
		h.WriteByte('E')
		str(x.Scheme)
		str(x.URL)
		str(x.EffAlias())
	case *Unnest:
		h.WriteByte('U')
		str(x.Attr)
	case *Follow:
		h.WriteByte('F')
		str(x.Link)
		str(x.Target)
		str(x.EffAlias())
	case *Select:
		h.WriteByte('S')
		hashPred(&h, x.Pred)
	case *Project:
		h.WriteByte('P')
		for _, c := range x.Cols {
			str(c)
		}
	case *Join:
		h.WriteByte('J')
		for _, c := range x.Conds {
			str(c.Left)
			str(c.Right)
		}
	case *Rename:
		h.WriteByte('R')
		// Map order is unspecified: combine the pairs commutatively.
		var sum uint64
		for old, nn := range x.Map {
			sum += maphash.String(m.seed, old)*31 + maphash.String(m.seed, nn)
		}
		return h.Sum64() ^ sum
	}
	return h.Sum64()
}

func hashPred(h *maphash.Hash, p nested.Predicate) {
	switch q := p.(type) {
	case nested.ConstPred:
		h.WriteByte('c')
		h.WriteString(q.Attr)
		h.WriteByte(byte(q.Op))
		h.WriteString(q.Val.String())
	case nested.AttrPred:
		h.WriteByte('a')
		h.WriteString(q.Left)
		h.WriteByte(byte(q.Op))
		h.WriteString(q.Right)
	case nested.AndPred:
		h.WriteByte('&')
		for _, sub := range q {
			hashPred(h, sub)
		}
	default:
		h.WriteString(p.String())
	}
	h.WriteByte(0)
}

// samePayload reports whether two nodes of the same kind carry the same
// operator payload; their children are compared by the caller.
func samePayload(a, b Expr) bool {
	switch x := a.(type) {
	case *EntryScan:
		y, ok := b.(*EntryScan)
		return ok && x.Scheme == y.Scheme && x.URL == y.URL && x.EffAlias() == y.EffAlias()
	case *Unnest:
		y, ok := b.(*Unnest)
		return ok && x.Attr == y.Attr
	case *Follow:
		y, ok := b.(*Follow)
		return ok && x.Link == y.Link && x.Target == y.Target && x.EffAlias() == y.EffAlias()
	case *Select:
		y, ok := b.(*Select)
		return ok && samePred(x.Pred, y.Pred)
	case *Project:
		y, ok := b.(*Project)
		return ok && slices.Equal(x.Cols, y.Cols)
	case *Join:
		y, ok := b.(*Join)
		return ok && slices.Equal(x.Conds, y.Conds)
	case *Rename:
		y, ok := b.(*Rename)
		return ok && maps.Equal(x.Map, y.Map)
	}
	return false
}

func samePred(p, q nested.Predicate) bool {
	switch a := p.(type) {
	case nested.ConstPred:
		b, ok := q.(nested.ConstPred)
		return ok && a.Attr == b.Attr && a.Op == b.Op && sameValue(a.Val, b.Val)
	case nested.AttrPred:
		b, ok := q.(nested.AttrPred)
		return ok && a == b
	case nested.AndPred:
		b, ok := q.(nested.AndPred)
		return ok && slices.EqualFunc(a, b, samePred)
	}
	return reflect.DeepEqual(p, q)
}

func sameValue(a, b nested.Value) bool {
	if x, ok := a.(nested.TextValue); ok { // what query constants are
		y, ok := b.(nested.TextValue)
		return ok && x == y
	}
	return reflect.DeepEqual(a, b)
}

// Schema returns the inferred schema of e, or nil when e does not
// type-check.
func (m *Memo) Schema(e Expr) *Schema {
	s, _ := m.SchemaOf(m.Node(e))
	return s
}

// SchemaOf is InferSchema through the memo: each distinct subexpression is
// inferred once, and the columns navigation steps add are shared.
func (m *Memo) SchemaOf(n *Node) (*Schema, error) {
	if n.typed {
		return n.schema, n.err
	}
	n.typed = true
	var kids [2]*Schema
	for i, k := range n.Kids() {
		if kids[i], n.err = m.SchemaOf(k); n.err != nil {
			return nil, n.err
		}
	}
	m.inferred++
	cols, same, err := inferNode(n.expr, m.ws, kids[:n.nk], m.blocks)
	switch {
	case err != nil:
		n.err = err
	case same != nil:
		n.schema = same
	default:
		n.own.Cols = cols
		n.schema = &n.own
	}
	return n.schema, n.err
}
