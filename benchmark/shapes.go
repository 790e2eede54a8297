package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ulixes/internal/sitegen"
)

// query is one generated input: the text sent to the program under test, its
// number of atoms and, for a suite query, the index of its shape in suite.
type query struct {
	Text  string
	Shape int
	Atoms int
}

// Constant vocabularies of the generated university (internal/sitegen). The
// generator spreads every attribute uniformly, so whichever constant a seed
// draws selects the same number of pages and rows to within one.
var (
	rankVals    = []string{"Full", "Associate", "Assistant"}
	sessionVals = []string{"Fall", "Winter", "Summer"}
	typeVals    = []string{"Graduate", "Undergraduate"}
)

func deptVals() []string {
	out := make([]string, siteDepts)
	for i := range out {
		out[i] = sitegen.DeptName(i)
	}
	return out
}

// domains maps a placeholder in a suite template to its vocabulary.
var domains = map[string][]string{
	"Rank": rankVals, "Session": sessionVals, "Type": typeVals, "DName": deptVals(),
}

// suiteShape is one of the ten E4-suite shapes (internal/exp.QuerySuite) with
// its constants turned into {placeholders}.
type suiteShape struct {
	Name   string
	Text   string
	Atoms  int
	Params []string
}

var suite = []suiteShape{
	{"Q1", "SELECT p.PName FROM Professor p", 1, nil},
	{"Q2", "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = '{Rank}'", 1, []string{"Rank"}},
	{"Q3", "SELECT c.CName, c.Description FROM Course c WHERE c.Session = '{Session}'", 1, []string{"Session"}},
	{"Q4", "SELECT d.DName, d.Address FROM Dept d", 1, nil},
	{"Q5", "SELECT pd.PName FROM ProfDept pd WHERE pd.DName = '{DName}'", 1, []string{"DName"}},
	{"Q6", "SELECT ci.CName, ci.PName FROM CourseInstructor ci", 1, nil},
	{"Q7", "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c " +
		"WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = '{Session}' AND p.Rank = '{Rank}'", 3, []string{"Session", "Rank"}},
	{"Q8", "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, ProfDept pd " +
		"WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName AND pd.DName = '{DName}' AND c.Type = '{Type}'", 4, []string{"DName", "Type"}},
	{"Q9", "SELECT ci.PName, c.CName FROM Course c, CourseInstructor ci WHERE c.CName = ci.CName AND c.Type = '{Type}'", 2, []string{"Type"}},
	{"Q10", "SELECT p.PName, p.Rank FROM Course c, CourseInstructor ci, Professor p " +
		"WHERE c.CName = ci.CName AND ci.PName = p.PName AND c.Session = '{Session}'", 3, []string{"Session"}},
}

// Shapes whose answer the mutate_mix writer can change: edit-rank rewrites
// Professor.Rank and edit-course rewrites Course.Description. The others keep
// their golden answer under mutation.
var mutableShape = map[string]bool{"Q2": true, "Q3": true, "Q7": true, "Q10": true}

func (s suiteShape) instantiate(shape int, pick func(param string, vals []string) string) query {
	text := s.Text
	for _, p := range s.Params {
		text = strings.ReplaceAll(text, "{"+p+"}", pick(p, domains[p]))
	}
	return query{Text: text, Shape: shape, Atoms: s.Atoms}
}

// suiteQuery instantiates shape i with constants drawn from rng.
func suiteQuery(i int, rng *rand.Rand) query {
	return suite[i].instantiate(i, func(_ string, vals []string) string { return vals[rng.Intn(len(vals))] })
}

// allSuiteQueries enumerates every instantiation the generator can emit, for
// the golden file.
func allSuiteQueries() []query {
	var out []query
	for i, s := range suite {
		combos := 1
		for _, p := range s.Params {
			combos *= len(domains[p])
		}
		for c := 0; c < combos; c++ {
			rest := c
			out = append(out, s.instantiate(i, func(_ string, vals []string) string {
				v := vals[rest%len(vals)]
				rest /= len(vals)
				return v
			}))
		}
	}
	return out
}

// primingScans fetch every page of the site through one-atom queries, so a
// cold_shapes request never waits for a page, only for its plan.
var primingScans = []string{
	"SELECT d.DName, d.Address FROM Dept d",
	"SELECT pd.PName, pd.DName FROM ProfDept pd",
	"SELECT p.PName, p.Rank, p.Email FROM Professor p",
	"SELECT ci.CName, ci.PName FROM CourseInstructor ci",
	"SELECT c.CName, c.Session, c.Description, c.Type FROM Course c",
}

// The view relations form a join chain; chainJoin[i] joins chainAtoms[i] to
// chainAtoms[i+1].
type chainAtom struct {
	Rel, Alias string
	Attrs      []string
}

var chainAtoms = []chainAtom{
	{"Dept", "d", []string{"DName", "Address"}},
	{"ProfDept", "pd", []string{"PName", "DName"}},
	{"Professor", "p", []string{"PName", "Rank", "Email"}},
	{"CourseInstructor", "ci", []string{"CName", "PName"}},
	{"Course", "c", []string{"CName", "Session", "Description", "Type"}},
}

var chainJoin = []string{"DName", "PName", "PName", "CName"}

// selectable lists the alias.Attr pairs a cold shape may put a constant
// selection on, in a fixed order.
var selectable = []struct{ Alias, Attr string }{
	{"d", "DName"}, {"pd", "DName"}, {"p", "Rank"}, {"c", "Session"}, {"c", "Type"},
}

const (
	projectionsPerClass = 4
	constSets           = 3
)

// coldClass is a planning problem: a connected sub-chain plus the set of
// attributes that carry selections. Planning time is set by the class (40 ms
// to 1.4 s); the projection list moves it by about a tenth. So every seed runs
// the same classes and draws only projections, constants and order, which
// keeps the planning work of a run the same from seed to seed.
type coldClass struct {
	Start, Atoms int
	Sels         []int      // indices into selectable
	Projections  [][]string // alias.Attr lists
}

func coldClasses() map[int][]coldClass {
	out := make(map[int][]coldClass)
	for n := 2; n <= 4; n++ {
		for start := 0; start+n <= len(chainAtoms); start++ {
			atoms := chainAtoms[start : start+n]
			var avail []int
			for i, s := range selectable {
				for _, a := range atoms {
					if a.Alias == s.Alias {
						avail = append(avail, i)
					}
				}
			}
			for mask := 0; mask < 1<<len(avail); mask++ {
				var sels []int
				dnames := 0
				for b, si := range avail {
					if mask&(1<<b) != 0 {
						sels = append(sels, si)
						if selectable[si].Attr == "DName" {
							dnames++
						}
					}
				}
				if dnames > 1 { // d.DName and pd.DName with two constants is an empty join
					continue
				}
				c := coldClass{Start: start, Atoms: n, Sels: sels}
				c.Projections = c.projections()
				out[n] = append(out[n], c)
			}
		}
	}
	return out
}

// answeredWrongly marks the generated shapes that ulixes answers wrongly at
// the seed; the generator steps over them, so that no operation of the
// benchmark fails. They are the queries over Professor, CourseInstructor and
// Course with no selection that project Professor attributes only. The
// oracle's narrow-beam plan navigates to the course pages and finds the 113
// professors who teach; Algorithm 1's chosen plan reads the professor pages
// only and returns all 120: a professor whose CourseList is empty joins with
// nothing, and the rewriting that removed that navigation lost it.
func (c coldClass) answeredWrongly(projection []string) bool {
	if chainAtoms[c.Start].Alias != "p" || c.Atoms != 3 || len(c.Sels) != 0 {
		return false
	}
	for _, col := range projection {
		if !strings.HasPrefix(col, "p.") {
			return false
		}
	}
	return true
}

// projections picks projectionsPerClass output lists, spread evenly over all
// one- and two-column lists whose column names differ.
func (c coldClass) projections() [][]string {
	type col struct{ use, name string }
	var cols []col
	for _, a := range chainAtoms[c.Start : c.Start+c.Atoms] {
		for _, at := range a.Attrs {
			cols = append(cols, col{a.Alias + "." + at, at})
		}
	}
	var all [][]string
	for i := range cols {
		all = append(all, []string{cols[i].use})
		for j := i + 1; j < len(cols); j++ {
			if cols[i].name != cols[j].name {
				all = append(all, []string{cols[i].use, cols[j].use})
			}
		}
	}
	out := make([][]string, projectionsPerClass)
	for k := range out {
		at := k * len(all) / projectionsPerClass
		for c.answeredWrongly(all[at]) {
			at++
		}
		out[k] = all[at]
	}
	return out
}

// constSet returns the k-th fixed assignment of constants.
func constSet(k int) map[string]string {
	depts := domains["DName"]
	return map[string]string{
		"Rank":    rankVals[k%len(rankVals)],
		"Session": sessionVals[k%len(sessionVals)],
		"Type":    typeVals[k%len(typeVals)],
		"DName":   depts[(3*k)%len(depts)],
	}
}

func (c coldClass) text(projection, consts int) string {
	atoms := chainAtoms[c.Start : c.Start+c.Atoms]
	var from, where []string
	for i, a := range atoms {
		from = append(from, a.Rel+" "+a.Alias)
		if i > 0 {
			j := chainJoin[c.Start+i-1]
			where = append(where, fmt.Sprintf("%s.%s = %s.%s", atoms[i-1].Alias, j, a.Alias, j))
		}
	}
	vals := constSet(consts)
	for _, si := range c.Sels {
		s := selectable[si]
		where = append(where, fmt.Sprintf("%s.%s = '%s'", s.Alias, s.Attr, vals[s.Attr]))
	}
	return "SELECT " + strings.Join(c.Projections[projection], ", ") +
		" FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// coldMix is the fixed share of two-, three- and four-atom shapes.
func coldMix(n int) map[int]int {
	two, three := n*4/10, n*4/10
	return map[int]int{2: two, 3: three, 4: n - two - three}
}

// coldShapes emits n structurally distinct queries. The seed draws each
// shape's projection list and constants; the order is fixed: shapes with more
// atoms first, among those the ones with more selections first, since those
// plan longest. The run then ends on its shortest requests and the two
// closed-loop clients finish together. With the order left to the seed, one
// client ends a run planning a 1.4 s four-atom shape alone, and whether a
// 80 ms shape is planned beside a 70 ms or a 600 ms one, which moves its
// latency by a third through the shared garbage collector, changes from seed
// to seed.
func coldShapes(seed int64, n int) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	classes, mix := coldClasses(), coldMix(n)
	var out []query
	for atoms := 4; atoms >= 2; atoms-- {
		cs, want := classes[atoms], mix[atoms]
		if want > len(cs)*projectionsPerClass {
			return nil, fmt.Errorf("cold shapes: %d %d-atom shapes wanted, %d exist", want, atoms, len(cs)*projectionsPerClass)
		}
		free := make(map[int][]int) // class → projection indices not yet used
		bySels := make(map[int][]query)
		for i := 0; i < want; i++ {
			ci := i % len(cs)
			if want <= len(cs) {
				ci = i * len(cs) / want
			}
			if _, ok := free[ci]; !ok {
				free[ci] = rng.Perm(projectionsPerClass)
			}
			proj := free[ci][0]
			free[ci] = free[ci][1:]
			sels := len(cs[ci].Sels)
			bySels[sels] = append(bySels[sels], query{Text: cs[ci].text(proj, rng.Intn(constSets)), Atoms: atoms})
		}
		for sels := len(selectable); sels >= 0; sels-- {
			out = append(out, bySels[sels]...)
		}
	}
	return out, nil
}

// allColdQueries enumerates every query coldShapes can emit, for the golden
// file.
func allColdQueries() []query {
	var out []query
	classes := coldClasses()
	for atoms := 2; atoms <= 4; atoms++ {
		for _, c := range classes[atoms] {
			for proj := 0; proj < projectionsPerClass; proj++ {
				sets := constSets
				if len(c.Sels) == 0 {
					sets = 1
				}
				for k := 0; k < sets; k++ {
					out = append(out, query{Text: c.text(proj, k), Atoms: atoms})
				}
			}
		}
	}
	return out
}
