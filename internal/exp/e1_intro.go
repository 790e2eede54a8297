package exp

import (
	"fmt"

	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// E1 reproduces the Introduction's comparison of four access paths for
// "find all authors who had papers in the last three VLDB conferences":
//
//  1. home → list of all conferences → VLDB → the three editions;
//  2. as above via the smaller database-conference list;
//  3. home → direct link to VLDB;
//  4. through the list of authors, visiting every author's page.
//
// The paper observes path 4 retrieves "several orders of magnitude more
// pages" (the real site had over 16,000 authors). We execute all four on
// the synthetic bibliography and report measured pages and bytes.
func E1(params sitegen.BibliographyParams) (*Table, error) {
	b, err := sitegen.GenerateBibliography(params)
	if err != nil {
		return nil, err
	}
	ms, err := site.NewMemSite(b.Instance, nil)
	if err != nil {
		return nil, err
	}
	ws := b.Scheme
	years := []string{
		fmt.Sprint(b.LastYear - 2),
		fmt.Sprint(b.LastYear - 1),
		fmt.Sprint(b.LastYear),
	}

	// Paths 1–3: select the VLDB series on the list anchors, navigate to
	// its page, select the three editions, navigate each, and collect
	// authors from the papers; intersect across years locally.
	confPath := func(entry, list string) nalg.Expr {
		bld := nalg.From(ws, entry).Unnest(list)
		return bld.
			Where(nested.Eq(entry+"."+list+".ConfName", "VLDB")).
			Follow("ToConf").
			Unnest("Editions").
			Where(nested.ConstPred{Attr: "ConfPage.Editions.Year", Op: nested.OpGe, Val: nested.TextValue(years[0])}).
			Follow("ToEdition").
			Unnest("Papers").
			Unnest("Authors").
			Project("ConfYearPage.Year", "ConfYearPage.Papers.Authors.AuthorName").
			MustBuild()
	}
	// Path 4: every author's publication list.
	authorPath := nalg.From(ws, sitegen.AuthorListPage).
		Unnest("AuthorList").
		Follow("ToAuthor").
		Unnest("Publications").
		Where(nested.Eq("AuthorPage.Publications.ConfName", "VLDB")).
		Project("AuthorPage.Publications.Year", "AuthorPage.AuthorName").
		MustBuild()

	type path struct {
		name string
		expr nalg.Expr
		// yearCol/authorCol name the output columns.
		yearCol, authorCol string
	}
	paths := []path{
		{"1: via list of all conferences", confPath(sitegen.ConfListPage, "ConfList"), "ConfYearPage.Year", "ConfYearPage.Papers.Authors.AuthorName"},
		{"2: via database-conference list", confPath(sitegen.DBConfListPage, "ConfList"), "ConfYearPage.Year", "ConfYearPage.Papers.Authors.AuthorName"},
		{"3: via home-page link to VLDB", confPath(sitegen.BibHomePage, "FeaturedConfs"), "ConfYearPage.Year", "ConfYearPage.Papers.Authors.AuthorName"},
		{"4: via the list of authors", authorPath, "AuthorPage.Publications.Year", "AuthorPage.AuthorName"},
	}

	t := &Table{
		ID:     "E1",
		Title:  "Introduction: four access paths for 'authors in the last three VLDBs'",
		Header: []string{"access path", "pages", "KB", "answer"},
	}
	var answers []int
	for _, p := range paths {
		ms.Counters().Reset()
		sess := pagecache.New(ms, ws, pagecache.Config{DefaultTTL: pagecache.Forever}).NewSession(pagecache.SessionOptions{})
		rel, err := nalg.Eval(p.expr, ws, nalg.FetcherSource{F: sess})
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", p.name, err)
		}
		// Intersect the per-year author sets locally (local work is free in
		// the paper's cost model).
		count, err := intersectAuthors(rel, p.yearCol, p.authorCol, years)
		if err != nil {
			return nil, err
		}
		answers = append(answers, count)
		t.AddRow(p.name, d(ms.Counters().Gets()), fmt.Sprintf("%.0f", float64(ms.Counters().Bytes())/1024), d(count))
	}
	for _, a := range answers[1:] {
		if a != answers[0] {
			return nil, fmt.Errorf("E1: access paths disagree on the answer: %v", answers)
		}
	}
	t.AddNote("paper: path 4 retrieves several orders of magnitude more pages (the real site had >16,000 authors; this instance has %d)", params.WithDefaults().Authors)
	t.AddNote("paper: path 2 uses 'a smaller page than the one that lists all conferences' — compare the KB column for paths 1 vs 2 vs 3")
	return t, nil
}

// intersectAuthors counts authors appearing in every one of the given
// years.
func intersectAuthors(rel *nested.Relation, yearCol, authorCol string, years []string) (int, error) {
	perYear := make(map[string]map[string]bool, len(years))
	for _, y := range years {
		perYear[y] = make(map[string]bool)
	}
	for _, tup := range rel.Tuples() {
		y, ok := tup.Get(yearCol)
		if !ok {
			return 0, fmt.Errorf("E1: missing column %q", yearCol)
		}
		a, ok := tup.Get(authorCol)
		if !ok {
			return 0, fmt.Errorf("E1: missing column %q", authorCol)
		}
		if set, want := perYear[y.String()]; want {
			set[a.String()] = true
		}
	}
	count := 0
	for a := range perYear[years[0]] {
		all := true
		for _, y := range years[1:] {
			if !perYear[y][a] {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return count, nil
}
