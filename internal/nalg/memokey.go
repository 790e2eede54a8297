package nalg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"

	"ulixes/internal/nested"
)

// Key returns the canonical key of an interned plan: two plans have equal
// keys exactly when their renderings (String) are equal once every alias
// "atom$name" has its atom prefix renamed to the ordinal of the atom's
// first appearance in the rendering. Plans that differ only in which query
// atom's aliases survived a Rule 4 merge compute the same relation, and
// enumeration deduplicates on this key. Only alias positions — scan and
// follow aliases, and column references — are normalised; a selection
// constant is data and is compared verbatim.
//
// The key is built bottom-up from interned parts. A rendering is a
// sequence of segments — the operator's own payload and its operands, in
// the order String prints them — and each segment, taken alone, has a key
// of its own and a list of the atoms it mentions in order of first
// appearance. A node's key is then its segments' keys, each followed by
// the ordinals its atoms take in the node's own first-appearance order.
func (m *Memo) Key(n *Node) int32 {
	if n.keyed {
		return n.key
	}
	for _, k := range n.Kids() {
		m.Key(k)
	}
	var p *payload
	if n.payload >= 0 {
		p = m.payloadKey(m.payload[n.payload])
	}
	w := keyWriter{buf: append(m.keyBuf[:0], 'n'), atoms: m.atomBuf[:0]}
	if p == nil {
		w.opaque(fmt.Sprintf("%p", n.expr))
	} else {
		switch n.expr.(type) {
		case *Unnest, *Follow:
			w.segment(n.kids[0].key, n.kids[0].atoms)
			w.segment(p.key, p.atoms)
		case *Join:
			w.segment(n.kids[0].key, n.kids[0].atoms)
			w.segment(p.key, p.atoms)
			w.segment(n.kids[1].key, n.kids[1].atoms)
		default:
			w.segment(p.key, p.atoms)
			for _, k := range n.Kids() {
				w.segment(k.key, k.atoms)
			}
		}
	}
	n.keyed, n.key = true, m.internKey(w.buf)
	m.keyBuf, m.atomBuf = w.buf, w.atoms
	// Most operators mention no atom their operand does not: share its list.
	for _, k := range n.Kids() {
		if sameStrings(k.atoms, w.atoms) {
			n.atoms = k.atoms
			return n.key
		}
	}
	n.atoms = m.atoms.Take(len(w.atoms))
	copy(n.atoms, w.atoms)
	return n.key
}

// payloadKey computes the key and atom list of an operator payload alone:
// the pieces String renders for it, atoms numbered within the payload.
func (m *Memo) payloadKey(p *payload) *payload {
	if p.keyed {
		return p
	}
	w := keyWriter{buf: append(m.keyBuf[:0], 'p'), atoms: m.atomBuf[:0]}
	switch x := p.expr.(type) {
	case *EntryScan:
		w.buf = append(w.buf, 'E')
		w.name(x.Scheme)
		w.name(shownAlias(x.Alias, x.Scheme))
	case *Unnest:
		w.buf = append(w.buf, 'U')
		w.name(shortAttr(x.Attr))
	case *Follow:
		w.buf = append(w.buf, 'F')
		w.name(shortAttr(x.Link))
		w.name(x.Target)
		w.name(shownAlias(x.Alias, x.Target))
	case *Select:
		w.buf = append(w.buf, 'S')
		w.pred(x.Pred)
	case *Project:
		w.buf = append(w.buf, 'P')
		w.count(len(x.Cols))
		for _, c := range x.Cols {
			w.name(c)
		}
	case *Join:
		w.buf = append(w.buf, 'J')
		w.count(len(x.Conds))
		for _, c := range x.Conds {
			w.name(c.Left)
			w.name(c.Right)
		}
	case *Rename:
		w.buf = append(w.buf, 'R')
		w.count(len(x.Map))
		var keys [8]string
		for _, old := range sortedKeys(x.Map, keys[:0]) {
			w.name(old)
			w.name(x.Map[old])
		}
	}
	p.keyed, p.key = true, m.internKey(w.buf)
	p.atoms = m.atoms.Take(len(w.atoms))
	copy(p.atoms, w.atoms)
	m.keyBuf, m.atomBuf = w.buf, w.atoms
	return p
}

// internKey returns the ordinal of a key, equal for equal keys.
func (m *Memo) internKey(key []byte) int32 {
	h := maphash.Bytes(m.seed, key)
	if at := m.keySet.find(h, func(ord int) bool { return bytes.Equal(m.keys[ord], key) }); at >= 0 {
		return int32(at)
	}
	kept := m.keyBytes.Take(len(key))
	copy(kept, key)
	m.keySet.add(h, len(m.keys))
	m.keys = append(m.keys, kept)
	return int32(len(m.keys)) - 1
}

func sameStrings(a, b []string) bool {
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

// shownAlias is the alias as String renders it: omitted when it is the
// default.
func shownAlias(alias, dflt string) string {
	if alias == dflt {
		return ""
	}
	return alias
}

// keyWriter accumulates one key and the atoms it mentions, in order of
// first appearance.
type keyWriter struct {
	buf   []byte
	atoms []string
}

// ordinal returns the position of an atom in first-appearance order,
// appending it when new.
func (w *keyWriter) ordinal(atom string) int {
	for i, a := range w.atoms {
		if a == atom {
			return i
		}
	}
	w.atoms = append(w.atoms, atom)
	return len(w.atoms) - 1
}

func (w *keyWriter) count(n int) { w.buf = binary.AppendUvarint(w.buf, uint64(n)) }

// opaque writes text that is compared verbatim.
func (w *keyWriter) opaque(s string) {
	w.count(len(s))
	w.buf = append(w.buf, s...)
}

// segment writes a part's key and the ordinals its atoms take here.
func (w *keyWriter) segment(key int32, atoms []string) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(key))
	for _, a := range atoms {
		w.count(w.ordinal(a))
	}
	w.buf = append(w.buf, 0xff)
}

func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// name writes a column name, alias or scheme name with every alias token
// word$word in it reduced to its atom's ordinal followed by the text after
// the atom.
func (w *keyWriter) name(s string) {
	word := 0 // start of the current run of word bytes
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '$' && i > word && i+1 < len(s) && isWordByte(s[i+1]) {
			// s[word:i] is the atom; it has been written as plain text.
			w.buf = w.buf[:len(w.buf)-(i-word)]
			w.buf = append(w.buf, 1)
			w.count(w.ordinal(s[word:i]))
			w.buf = append(w.buf, '$')
			for i++; i < len(s) && isWordByte(s[i]); i++ {
				w.buf = append(w.buf, s[i])
			}
			i--
			word = i + 1
			continue
		}
		w.buf = append(w.buf, c)
		if !isWordByte(c) {
			word = i + 1
		}
	}
	w.buf = append(w.buf, 0)
}

func (w *keyWriter) pred(p nested.Predicate) {
	switch q := p.(type) {
	case nested.ConstPred:
		w.buf = append(w.buf, 'c', byte(q.Op))
		w.name(q.Attr)
		w.opaque(q.Val.String())
	case nested.AttrPred:
		w.buf = append(w.buf, 'a', byte(q.Op))
		w.name(q.Left)
		w.name(q.Right)
	case nested.AndPred:
		w.buf = append(w.buf, '&')
		w.count(len(q))
		for _, sub := range q {
			w.pred(sub)
		}
	default:
		w.buf = append(w.buf, 'o')
		w.opaque(p.String())
	}
}
