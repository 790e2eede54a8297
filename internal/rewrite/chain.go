package rewrite

import (
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/nalg"
)

// step is one element of a pure navigation chain: an entry scan, an unnest,
// or a follow. Chains are the normal form of default navigations right
// after Rule 1; Rules 4 and 9 reason about them.
type step struct {
	kind byte // 'e' entry, 'u' unnest, 'f' follow
	// entry: scheme and URL.
	scheme string
	url    string
	// unnest/follow: the attribute path relative to the owning alias.
	relPath string
	// owner is the alias the attribute belongs to (unnest/follow).
	owner string
	// follow: target scheme.
	target string
	// alias introduced by the step (entry and follow steps).
	alias string
}

// sig is the alias-independent signature of a step, used to detect repeated
// navigations (Rule 4).
func (s step) sig() string {
	switch s.kind {
	case 'e':
		return "e:" + s.scheme + "@" + s.url
	case 'u':
		return "u:" + s.relPath
	default:
		return "f:" + s.relPath + ">" + s.target
	}
}

// chainOf decomposes a pure navigation chain (an EntryScan with only Unnest
// and Follow applied) into its steps, entry first. It reports ok=false for
// any other expression shape.
func chainOf(e nalg.Expr) (steps []step, ok bool) {
	switch x := e.(type) {
	case *nalg.EntryScan:
		return []step{{kind: 'e', scheme: x.Scheme, url: x.URL, alias: x.EffAlias()}}, true
	case *nalg.Unnest:
		in, ok := chainOf(x.In)
		if !ok {
			return nil, false
		}
		owner, rel, ok := splitCol(x.Attr)
		if !ok {
			return nil, false
		}
		return append(in, step{kind: 'u', relPath: rel, owner: owner}), true
	case *nalg.Follow:
		in, ok := chainOf(x.In)
		if !ok {
			return nil, false
		}
		owner, rel, ok := splitCol(x.Link)
		if !ok {
			return nil, false
		}
		return append(in, step{kind: 'f', relPath: rel, owner: owner, target: x.Target, alias: x.EffAlias()}), true
	default:
		return nil, false
	}
}

// splitCol splits a qualified column "alias.path.parts" into its alias and
// relative path. Aliases never contain dots.
func splitCol(col string) (alias, rel string, ok bool) {
	i := strings.IndexByte(col, '.')
	if i <= 0 || i == len(col)-1 {
		return "", "", false
	}
	return col[:i], col[i+1:], true
}

// prefixMatch reports whether the signature of short is a prefix of the
// signature of long, and if so returns the alias mapping from short's
// aliases to long's over the shared prefix.
func prefixMatch(long, short []step) (map[string]string, bool) {
	if len(short) > len(long) {
		return nil, false
	}
	aliasMap := make(map[string]string)
	for i, s := range short {
		l := long[i]
		if s.sig() != l.sig() {
			return nil, false
		}
		if s.kind == 'e' || s.kind == 'f' {
			aliasMap[s.alias] = l.alias
		}
	}
	return aliasMap, true
}

// aliasColMap expands an alias mapping into a full column substitution map
// over a schema: every column "a.rest" with a ∈ aliasMap maps to
// "aliasMap[a].rest".
func aliasColMap(sch *nalg.Schema, aliasMap map[string]string) map[string]string {
	m := make(map[string]string)
	for _, c := range sch.Cols {
		alias, rel, ok := splitCol(c.Name)
		if !ok {
			continue
		}
		if nn, ok := aliasMap[alias]; ok && nn != alias {
			m[c.Name] = nn + "." + rel
		}
	}
	return m
}

// CoversExtent reports whether navigating the link attribute ref reaches
// every reachable page of its target scheme (see coversExtent). Exported
// for default-navigation inference.
func CoversExtent(ws *adm.Scheme, ref adm.AttrRef) bool { return coversExtent(ws, ref) }

// CoveringChain reports whether a pure, selection-free navigation chain
// reaches the full extent of every page-scheme it traverses. Exported for
// default-navigation inference (§5: "by inference over inclusion
// constraints, the system might be able to select default navigations").
func CoveringChain(ws *adm.Scheme, e nalg.Expr) bool { return coveringChain(ws, e) }

// coversExtent reports whether navigating the link attribute ref reaches
// every reachable page of its target scheme: every other link attribute
// with the same target must be included in ref via the declared inclusion
// constraints. This is the soundness condition under which Rule 9 may drop
// the covering side of a join.
func coversExtent(ws *adm.Scheme, ref adm.AttrRef) bool {
	tgt, err := ws.LinkTarget(ref)
	if err != nil {
		return false
	}
	for _, other := range ws.Links() {
		ot, err := ws.LinkTarget(other)
		if err != nil || ot != tgt {
			continue
		}
		if !ws.IncludedIn(other, ref) {
			return false
		}
	}
	return true
}

// coveringChain reports whether a pure, selection-free navigation chain
// reaches the full extent of every page-scheme it traverses: every follow
// step's link attribute must cover its target's extent.
func coveringChain(ws *adm.Scheme, e nalg.Expr) bool {
	steps, ok := chainOf(e)
	if !ok {
		return false
	}
	// Track the page-scheme each alias scans so follow steps can be given
	// provenance without re-inferring schemas.
	schemeOf := make(map[string]string)
	pathOf := make(map[string]adm.Path) // alias -> unnest prefix consumed so far
	for _, s := range steps {
		switch s.kind {
		case 'e':
			schemeOf[s.alias] = s.scheme
		case 'u':
			// relPath is the full path of the list within the owner scheme.
			pathOf[s.owner] = adm.ParsePath(s.relPath)
		case 'f':
			owner, ok := schemeOf[s.owner]
			if !ok {
				return false
			}
			ref := adm.AttrRef{Scheme: owner, Path: adm.ParsePath(s.relPath)}
			if !coversExtent(ws, ref) {
				return false
			}
			schemeOf[s.alias] = s.target
		}
	}
	return true
}

// InstantiateAliases clones a navigation chain (optionally containing
// selections), prefixing every alias with "atom$" so the same default
// navigation can appear several times in one query without column
// collisions. It returns the rewritten expression together with the alias
// map applied.
func InstantiateAliases(e nalg.Expr, atom string) (nalg.Expr, map[string]string) {
	aliasMap := make(map[string]string)
	nalg.Walk(e, func(n nalg.Expr) {
		switch x := n.(type) {
		case *nalg.EntryScan:
			aliasMap[x.EffAlias()] = atom + "$" + x.EffAlias()
		case *nalg.Follow:
			aliasMap[x.EffAlias()] = atom + "$" + x.EffAlias()
		}
	})
	col := func(name string) string { return realiasCol(name, aliasMap) }
	return fold(e, col, mapName(aliasMap)), aliasMap
}

// realiasCol rewrites a qualified column under an alias map.
func realiasCol(name string, aliasMap map[string]string) string {
	if alias, rel, ok := splitCol(name); ok {
		if nn, ok := aliasMap[alias]; ok {
			return nn + "." + rel
		}
	}
	return name
}
