package vanswer

import (
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/engine"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// pushFixture is fixture plus the generated university, so tests can look up
// instance tuples to mutate.
func pushFixture(t *testing.T, cfg ManagerConfig) (*sitegen.University, *site.MemSite, *engine.Engine, *Manager) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	eng := engine.New(views, ms, stats.CollectInstance(u.Instance))
	return u, ms, eng, NewManager(ms, views, cfg)
}

// profPage returns the i-th professor's page URL and instance tuple.
func profPage(t *testing.T, u *sitegen.University, i int) (string, nested.Tuple) {
	t.Helper()
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		if tup.MustGet("Name").String() == sitegen.ProfName(i) {
			return tup.MustGet(adm.URLAttr).String(), tup
		}
	}
	t.Fatalf("prof %d not found", i)
	return "", nested.Tuple{}
}

// TestApplyChangeRefreshesOnlyTouchedRow pins the incremental maintenance
// path: a push event re-verifies one page and rebuilds the applied extents,
// so the next view answer reflects the mutation — at the cost of a single
// download, without a full crawl.
func TestApplyChangeRefreshesOnlyTouchedRow(t *testing.T) {
	clock := newManualClock()
	u, ms, eng, m := pushFixture(t, ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
	})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	src := "SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Emeritus'"
	if rel, ok, err := m.TryAnswer(parse(t, src)); !ok || err != nil || rel.Len() != 0 {
		t.Fatalf("pre-mutation: ok=%v err=%v, want an empty fresh answer", ok, err)
	}

	// Promote professor 0 on the live site and push the event.
	url, tup := profPage(t, u, 0)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	before := m.Store().Maintenance()
	changed, err := m.ApplyChange(url, sitegen.ProfPage, false)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("ApplyChange reported no change for a mutated page")
	}
	after := m.Store().Maintenance()
	if d := after.Downloads - before.Downloads; d != 1 {
		t.Fatalf("ApplyChange cost %d downloads, want 1", d)
	}

	// The rebuilt extent answers with the new tuple, byte-identical to live.
	rel, ok, err := m.TryAnswer(parse(t, src))
	if !ok || err != nil {
		t.Fatalf("post-mutation: ok=%v err=%v", ok, err)
	}
	live, err := eng.QueryCQ(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if live.Result.Len() != 1 {
		t.Fatalf("live answer has %d tuples, want 1", live.Result.Len())
	}
	if rel.String() != live.Result.String() {
		t.Fatalf("view answer diverged from live:\nview %s\nlive %s", rel, live.Result)
	}
}

// TestApplyChangeKeepsHorizon: one page being fresh says nothing about the
// rest — targeted refreshes must not renew the freshness horizon. A clean
// full sweep (AdvanceHorizon) renews it without rebuilding extents.
func TestApplyChangeKeepsHorizon(t *testing.T) {
	clock := newManualClock()
	u, ms, _, m := pushFixture(t, ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
	})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	src := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	clock.Advance(2 * time.Hour)

	url, tup := profPage(t, u, 0)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyChange(url, sitegen.ProfPage, false); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.TryAnswer(parse(t, src)); ok || err != nil {
		t.Fatalf("post-ApplyChange: ok=%v err=%v, want a stale decline", ok, err)
	}

	// A clean full sweep, by contrast, renews the horizon in place.
	m.AdvanceHorizon(clock.Now())
	if _, ok, err := m.TryAnswer(parse(t, src)); !ok || err != nil {
		t.Fatalf("post-AdvanceHorizon: ok=%v err=%v, want an answer", ok, err)
	}
}

// TestApplyChangeRemovalDropsTuples: a Removed event deletes the page's row
// and the rebuilt extent loses exactly that page's tuple.
func TestApplyChangeRemovalDropsTuples(t *testing.T) {
	u, ms, _, m := pushFixture(t, ManagerConfig{})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	src := "SELECT p.PName FROM Professor p"
	rel, ok, err := m.TryAnswer(parse(t, src))
	if !ok || err != nil {
		t.Fatal(err)
	}
	before := rel.Len()

	// Remove a professor page AND its list entry, then push both events the
	// feed would deliver: the list page changed, the professor page is gone.
	url, _ := profPage(t, u, 1)
	ms.RemovePage(url)
	listTup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	lv, _ := listTup.Get("ProfList")
	var newList nested.ListValue
	for _, e := range lv.(nested.ListValue) {
		if e.MustGet("ToProf").String() != url {
			newList = append(newList, e)
		}
	}
	if err := ms.UpdatePage(sitegen.ProfListPage, listTup.With("ProfList", newList)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyChange(sitegen.UnivProfListURL, sitegen.ProfListPage, false); err != nil {
		t.Fatal(err)
	}
	changed, err := m.ApplyChange(url, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("ApplyChange reported no change for a removal")
	}
	rel, ok, err = m.TryAnswer(parse(t, src))
	if !ok || err != nil {
		t.Fatal(err)
	}
	if rel.Len() != before-1 {
		t.Fatalf("post-removal answer has %d tuples, want %d", rel.Len(), before-1)
	}
	if _, ok := m.Store().Snapshot().Page(url); ok {
		t.Fatal("removed page still materialized")
	}
}

// TestAdvanceHorizonBeforeApplyIsSafe: pushing at a manager with no store or
// views must be a no-op, not a panic.
func TestAdvanceHorizonBeforeApplyIsSafe(t *testing.T) {
	clock := newManualClock()
	_, _, _, m := pushFixture(t, ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
	})
	m.AdvanceHorizon(clock.Now())
	if changed, err := m.ApplyChange("http://univ.example.edu/x.html", sitegen.ProfPage, false); changed || err != nil {
		t.Fatalf("ApplyChange before Apply: changed=%v err=%v, want a no-op", changed, err)
	}
}

// TestFirstApplyVerifiesWarmStore: a manager handed a warm shared store
// (no expiry) must not take the pages the store already holds as verified
// at the first Apply. A page changed on the site since it was stored is
// re-downloaded before the extents are built, and when a stored page
// cannot be verified the extents are not served within the horizon.
func TestFirstApplyVerifiesWarmStore(t *testing.T) {
	for _, broken := range []bool{false, true} {
		clock := newManualClock()
		u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
		if err != nil {
			t.Fatal(err)
		}
		ms, err := site.NewMemSite(u.Instance, nil)
		if err != nil {
			t.Fatal(err)
		}
		fh := &flakyHead{Server: ms}
		views := view.UniversityView(u.Scheme)
		live := engine.New(views, ms, stats.CollectInstance(u.Instance))
		store := pagecache.New(fh, u.Scheme, pagecache.Config{DefaultTTL: pagecache.Forever, Clock: clock.Now})
		warm := engine.New(views, fh, stats.CollectInstance(u.Instance))
		warm.Exec.Cache = store
		src := "SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Emeritus'"
		if _, err := warm.QueryCQ(parse(t, src)); err != nil {
			t.Fatal(err)
		}

		// A day later professor 0 is promoted on the site; the store still
		// holds the old page.
		clock.Advance(24 * time.Hour)
		url, tup := profPage(t, u, 0)
		if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
			t.Fatal(err)
		}
		if broken {
			fh.setFail(url, true)
		}
		m := NewManager(fh, views, ManagerConfig{
			Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
			Store:    store,
		})
		if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
			t.Fatal(err)
		}
		rel, ok, err := m.TryAnswer(parse(t, src))
		if broken {
			if ok || err != nil {
				t.Errorf("unverifiable page: view answered %v (err %v), want a decline", rel, err)
			}
			continue
		}
		want, err := live.QueryCQ(parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || err != nil || rel.String() != want.Result.String() {
			t.Errorf("first Apply over a warm store: ok=%v err=%v\nview %v\nlive %s", ok, err, rel, want.Result)
		}
	}
}
