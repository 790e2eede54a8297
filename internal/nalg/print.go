package nalg

import (
	"fmt"
	"strings"
)

// Explain renders the expression as an indented query-plan tree in the
// style of the paper's Figures 2–4 (leaves at the bottom are page accesses;
// upward edges are navigations).
func Explain(e Expr) string {
	var sb strings.Builder
	explain(&sb, e, "", true)
	return sb.String()
}

func nodeLabel(e Expr) string {
	switch x := e.(type) {
	case *ExtScan:
		return "ext " + x.Relation
	case *EntryScan:
		return fmt.Sprintf("entry %s @ %s", x.String(), x.URL)
	case *Unnest:
		return "◦ " + shortAttr(x.Attr)
	case *Follow:
		tgt := x.Target
		if x.Alias != "" && x.Alias != x.Target {
			tgt += "[" + x.Alias + "]"
		}
		return fmt.Sprintf("→ %s (%s)", shortAttr(x.Link), tgt)
	case *Select:
		return "σ " + x.Pred.String()
	case *Project:
		return "π " + strings.Join(x.Cols, ", ")
	case *Join:
		conds := make([]string, len(x.Conds))
		for i, c := range x.Conds {
			conds[i] = c.String()
		}
		return "⋈ " + strings.Join(conds, ", ")
	case *Rename:
		pairs := make([]string, 0, len(x.Map))
		for _, old := range sortedKeys(x.Map, nil) {
			pairs = append(pairs, old+"→"+x.Map[old])
		}
		return "ρ " + strings.Join(pairs, ", ")
	default:
		return fmt.Sprintf("%T", e)
	}
}

func explain(sb *strings.Builder, e Expr, prefix string, last bool) {
	connector := "├─ "
	childPrefix := prefix + "│  "
	if last {
		connector = "└─ "
		childPrefix = prefix + "   "
	}
	if prefix == "" && last {
		connector = ""
		childPrefix = "   "
	}
	sb.WriteString(prefix)
	sb.WriteString(connector)
	sb.WriteString(nodeLabel(e))
	sb.WriteByte('\n')
	kids := e.Children()
	for i, k := range kids {
		explain(sb, k, childPrefix, i == len(kids)-1)
	}
}
