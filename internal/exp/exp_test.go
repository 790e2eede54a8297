package exp

import (
	"strconv"
	"strings"
	"testing"

	"ulixes/internal/nalg"
	"ulixes/internal/sitegen"
)

// smallBib keeps E1 fast in tests while preserving the path-4 explosion.
var smallBib = sitegen.BibliographyParams{
	Authors: 200, Confs: 8, DBConfs: 3, Years: 5, PapersPerEdition: 6, AuthorsPerPaper: 2, Seed: 1998,
}

func cellInt(t *testing.T, s string) int {
	t.Helper()
	end := 0
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	v, err := strconv.Atoi(s[:end])
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab, err := E1(smallBib)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	p1 := cellInt(t, tab.Rows[0][1])
	p4 := cellInt(t, tab.Rows[3][1])
	if p4 < 20*p1 {
		t.Errorf("path 4 (%d pages) should dwarf path 1 (%d pages)", p4, p1)
	}
	// Path 4 visits every author page plus the list.
	if p4 != smallBib.Authors+1 {
		t.Errorf("path 4 pages = %d, want %d", p4, smallBib.Authors+1)
	}
	// The answer must be non-empty (skewed authorship) and identical
	// across paths — E1 itself cross-checks equality.
	if cellInt(t, tab.Rows[0][3]) == 0 {
		t.Error("intersection should be non-empty with community-skewed authorship")
	}
	// Byte sizes: smaller DB list and tiny featured list.
	kb1 := cellInt(t, tab.Rows[0][2])
	kb2 := cellInt(t, tab.Rows[1][2])
	kb3 := cellInt(t, tab.Rows[2][2])
	if !(kb3 <= kb2 && kb2 <= kb1) {
		t.Errorf("byte sizes should shrink along paths 1→2→3: %d, %d, %d", kb1, kb2, kb3)
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := E2(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	join := cellFloat(t, tab.Rows[0][1])
	chase := cellFloat(t, tab.Rows[1][1])
	if join > chase {
		t.Errorf("paper claims C(1d) ≤ C(2d): join %v vs chase %v", join, chase)
	}
	if !strings.Contains(tab.Rows[2][0], "pointer-join") {
		t.Errorf("optimizer should choose pointer-join: %v", tab.Rows[2][0])
	}
	// Chosen plan is at least as cheap as both paper plans.
	best := cellFloat(t, tab.Rows[2][1])
	if best > join+1e-9 {
		t.Errorf("optimizer choice (%v) worse than paper plan (%v)", best, join)
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := E3(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	join := cellFloat(t, tab.Rows[0][1])
	chase := cellFloat(t, tab.Rows[1][1])
	if join <= 50 {
		t.Errorf("paper: join plan is 'well over 50', got %v", join)
	}
	if chase >= 30 {
		t.Errorf("paper: chase plan ≈ 23–25, got %v", chase)
	}
	if !strings.Contains(tab.Rows[2][0], "pointer-chase") {
		t.Errorf("optimizer should choose pointer-chase: %v", tab.Rows[2][0])
	}
	// Measured pages agree in ordering.
	mJoin := cellInt(t, tab.Rows[0][2])
	mChase := cellInt(t, tab.Rows[1][2])
	if mChase >= mJoin {
		t.Errorf("measured chase (%d) should beat measured join (%d)", mChase, mJoin)
	}
}

func TestSweepsWinnerColumns(t *testing.T) {
	e2s, err := E2Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e2s.Rows {
		if row[len(row)-1] != "pointer-join" {
			t.Errorf("E2 sweep: join should win at %v", row)
		}
	}
	e3s, err := E3Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e3s.Rows {
		if row[len(row)-1] != "pointer-chase" {
			t.Errorf("E3 sweep: chase should win at %v", row)
		}
	}
}

func TestE4AllOptimal(t *testing.T) {
	tab, err := E4(sitegen.PaperUniversityParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(QuerySuite) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("%s: chosen plan not optimal: %v", row[0], row)
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is the 0% update rate: zero downloads.
	if got := cellInt(t, tab.Rows[0][2]); got != 0 {
		t.Errorf("0%% updates: downloads = %d", got)
	}
	// Downloads track the update counts; light connections stay flat.
	lc0 := cellInt(t, tab.Rows[0][1])
	for i, row := range tab.Rows {
		updates := cellInt(t, row[0])
		downloads := cellInt(t, row[2])
		if downloads != updates {
			t.Errorf("row %d: %d downloads for %d updates", i, downloads, updates)
		}
		if lc := cellInt(t, row[1]); lc > lc0+1 {
			t.Errorf("row %d: light connections grew to %d", i, lc)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	a1, err := A1(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	full := cellFloat(t, a1.Rows[0][1])
	noPush := cellFloat(t, a1.Rows[1][1])
	if noPush <= full {
		t.Errorf("disabling Rule 6 should hurt: %v vs %v", noPush, full)
	}
	a2, err := A2(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	full2 := cellFloat(t, a2.Rows[0][1])
	var noChase float64
	for _, row := range a2.Rows {
		if strings.Contains(row[0], "Rule 9") {
			noChase = cellFloat(t, row[1])
		}
	}
	if noChase <= full2 {
		t.Errorf("disabling Rule 9 should hurt Example 7.2: %v vs %v", noChase, full2)
	}
}

func TestA3RatiosReasonable(t *testing.T) {
	tab, err := A3(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio := cellFloat(t, row[3])
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: estimate off by more than 2x (ratio %v)", row[0], ratio)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "T", Header: []string{"a", "b"}}
	tab.AddRow("1", "22")
	tab.AddNote("n %d", 5)
	s := tab.String()
	for _, want := range []string{"== X: T ==", "a", "22", "note: n 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	for _, want := range []string{"### X — T", "| a | b |", "| 1 | 22 |", "- n 5"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestPaperPlansTypeCheckAndCompute(t *testing.T) {
	ws := sitegen.UniversityScheme()
	for name, e := range map[string]nalg.Expr{
		"71join":  Plan71PointerJoin(ws),
		"71chase": Plan71PointerChase(ws),
		"72join":  Plan72PointerJoin(ws),
		"72chase": Plan72PointerChase(ws),
	} {
		if _, err := nalg.InferSchema(e, ws); err != nil {
			t.Errorf("%s does not type-check: %v", name, err)
		}
		if !nalg.Computable(e) {
			t.Errorf("%s is not computable", name)
		}
	}
}

func TestX1PartialMaterialization(t *testing.T) {
	tab, err := X1(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Query inside the portion: full and partial views download nothing.
	if cellInt(t, tab.Rows[1][3]) != 0 || cellInt(t, tab.Rows[2][3]) != 0 {
		t.Errorf("in-portion queries should not download: %v %v", tab.Rows[1], tab.Rows[2])
	}
	// Query outside the portion: partial view downloads like the virtual
	// engine; full view does not.
	if cellInt(t, tab.Rows[4][3]) != 0 {
		t.Errorf("full view should serve courses locally: %v", tab.Rows[4])
	}
	if cellInt(t, tab.Rows[5][3]) == 0 {
		t.Errorf("partial view must download courses live: %v", tab.Rows[5])
	}
	// The partial store holds far fewer pages.
	if cellInt(t, tab.Rows[2][4]) >= cellInt(t, tab.Rows[1][4]) {
		t.Error("portion should be smaller than the full view")
	}
}

// TestP3toP6 runs each of P3-P6 twice on the paper's university. Each
// returns an error when one of its own invariant checks fails, and each
// must print the same table both times: the chaos server, the shared store,
// the guard's manual clock and view selection are all deterministic.
func TestP3toP6(t *testing.T) {
	params := sitegen.PaperUniversityParams()
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
	}{
		{"P3", func() (*Table, error) { return P3(params, nil, 1998) }},
		{"P4", func() (*Table, error) { return P4(params) }},
		{"P5", func() (*Table, error) { return P5(params) }},
		{"P6", func() (*Table, error) { return P6(params) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tables [2]string
			for i := range tables {
				tab, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				tables[i] = tab.String()
			}
			if tables[0] != tables[1] {
				t.Errorf("two runs differ:\n%s\n%s", tables[0], tables[1])
			}
		})
	}
}

func TestP7PushDominatesPull(t *testing.T) {
	tab, err := P7(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row order: pull forever, pull ttl, pull 0, push. Columns: name, GETs,
	// HEADs, ops, stale. P7 itself enforces the dominance invariants; the
	// test pins the qualitative shape so a regression reads as a failure
	// here, not as silently weaker numbers in EXPERIMENTS.md.
	pullForever, pullZero, push := tab.Rows[0], tab.Rows[2], tab.Rows[3]
	if cellInt(t, push[4]) != 0 {
		t.Errorf("push served stale answers: %v", push)
	}
	if cellInt(t, pullForever[4]) == 0 {
		t.Errorf("ttl=forever pull should go stale under mutations: %v", pullForever)
	}
	if cellInt(t, push[1]) > cellInt(t, pullZero[1]) {
		t.Errorf("push used more GETs than always-revalidate pull: %v vs %v", push, pullZero)
	}
	if cellInt(t, push[3]) >= cellInt(t, pullZero[3]) {
		t.Errorf("push should cost fewer network ops than always-revalidate pull: %v vs %v", push, pullZero)
	}
}

func TestP8OverloadBoundedAndExact(t *testing.T) {
	tab, err := P8(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row order: instant 429, bounded queue, cost gate. Columns: admission,
	// offered, answered, dropped, goodput, p99 sojourn, peak depth. P8
	// itself enforces the hard invariants (goodput floor, sojourn bound,
	// access exactness, counter conservation, leak-free drain); the test
	// pins the qualitative shape.
	instant, queued, gate := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	if got := cellInt(t, instant[1]); got != p8Bursts*p8Clients {
		t.Errorf("instant offered = %d, want %d", got, p8Bursts*p8Clients)
	}
	if got := cellInt(t, queued[1]); got != p8Bursts*p8Clients {
		t.Errorf("queued offered = %d, want %d", got, p8Bursts*p8Clients)
	}
	if cellInt(t, queued[2]) <= cellInt(t, instant[2]) {
		t.Errorf("bounded queue should answer more than instant reject: %v vs %v", queued, instant)
	}
	if min := p8Bursts * (p8Slots + p8Queue); cellInt(t, queued[2]) < min {
		t.Errorf("bounded queue answered %d, structural floor is %d", cellInt(t, queued[2]), min)
	}
	if cellInt(t, queued[6]) == 0 {
		t.Errorf("bounded queue never queued anybody under 10x overload: %v", queued)
	}
	if cellInt(t, gate[3]) != 1 {
		t.Errorf("cost gate row should record the one refusal: %v", gate)
	}
}
