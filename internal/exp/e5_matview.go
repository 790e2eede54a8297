package exp

import (
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/engine"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// E5 reproduces §8's cost claim for materialized views: evaluating a query
// costs C(E) light connections plus one download per page actually updated
// since the last access. We materialize the university site, touch a
// varying fraction of the professor pages, and re-run a query that visits
// them; downloads must track the update rate while the virtual engine would
// pay full page downloads every time.
func E5(params sitegen.UniversityParams) (*Table, error) {
	u, ms, eng, err := univFixture(params)
	if err != nil {
		return nil, err
	}
	store, err := engine.Materialize(ms, u.Scheme)
	if err != nil {
		return nil, err
	}
	mv := engine.New(view.UniversityView(u.Scheme), ms, stats.CollectInstance(u.Instance))
	mv.Exec.Cache = store

	const query = "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"
	// Virtual baseline: full downloads every time.
	vAns, err := eng.Query(query)
	if err != nil {
		return nil, err
	}

	// Professor page URLs in deterministic order.
	var profURLs []string
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		v, _ := tup.Get(adm.URLAttr)
		profURLs = append(profURLs, v.String())
	}

	t := &Table{
		ID:     "E5",
		Title:  "§8 materialized views: query cost vs site update rate",
		Header: []string{"updated pages", "light conns", "downloads", "virtual downloads", "answer"},
	}
	rates := []float64{0, 0.05, 0.10, 0.25, 0.50, 1.00}
	for _, rate := range rates {
		n := int(rate * float64(len(profURLs)))
		for i := 0; i < n; i++ {
			// Re-render the page: content identical but Last-Modified bumps,
			// which is exactly what the view must detect.
			ms.Touch(profURLs[i])
		}
		ans, err := mv.Query(query)
		if err != nil {
			return nil, fmt.Errorf("E5 at rate %.2f: %w", rate, err)
		}
		t.AddRow(
			fmt.Sprintf("%d (%.0f%%)", n, rate*100),
			d(ans.Exec.LightConnections),
			d(ans.Exec.Pages),
			d(vAns.PagesFetched),
			d(ans.Result.Len()),
		)
	}
	t.AddNote("paper: cost = C(E) light connections + downloads only for updated pages; at 0%% updates no page is downloaded at all")
	t.AddNote("light connections per query stay ≈ C(E) = %.0f while virtual execution always downloads %d pages", vAns.Plan.Cost, vAns.PagesFetched)
	return t, nil
}
