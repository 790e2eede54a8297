package exp

import (
	"ulixes/internal/engine"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// X1 is an extension experiment (not a table in the paper): §8 mentions
// materializing "views over portions of the Web"; this compares full
// materialization, a professor-only portion, and no materialization for two
// queries — one inside the portion, one outside it. Queries inside the
// portion cost only light connections; queries outside fall back to live
// downloads without incurring any maintenance obligation.
func X1(params sitegen.UniversityParams) (*Table, error) {
	u, ms, eng, err := univFixture(params)
	if err != nil {
		return nil, err
	}
	queries := []struct{ name, src string }{
		{"professors (in portion)", "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"},
		{"fall courses (outside)", "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'"},
	}
	st := stats.CollectInstance(u.Instance)
	views := view.UniversityView(u.Scheme)

	full, err := engine.Materialize(ms, u.Scheme)
	if err != nil {
		return nil, err
	}
	partial, err := engine.Materialize(ms, u.Scheme, sitegen.ProfListPage, sitegen.ProfPage)
	if err != nil {
		return nil, err
	}
	fullEng := engine.New(views, ms, st)
	fullEng.Exec.Cache = full
	partialEng := engine.New(views, ms, st)
	partialEng.Exec.Cache = partial

	t := &Table{
		ID:     "X1",
		Title:  "Extension: partial materialization (§8's 'portions of the Web')",
		Header: []string{"query", "mode", "light conns", "downloads", "stored pages"},
	}
	for _, q := range queries {
		vAns, err := eng.Query(q.src)
		if err != nil {
			return nil, err
		}
		t.AddRow(q.name, "virtual", "0", d(vAns.PagesFetched), "0")
		fAns, err := fullEng.Query(q.src)
		if err != nil {
			return nil, err
		}
		t.AddRow("", "full view", d(fAns.Exec.LightConnections), d(fAns.Exec.Pages), d(full.Len()))
		pAns, err := partialEng.Query(q.src)
		if err != nil {
			return nil, err
		}
		t.AddRow("", "prof portion", d(pAns.Exec.LightConnections), d(pAns.Exec.Pages), d(partial.Len()))
	}
	t.AddNote("inside the portion: light connections only; outside it: live downloads, like the virtual engine, with no maintenance obligation")
	return t, nil
}
