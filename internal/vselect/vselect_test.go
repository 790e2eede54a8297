package vselect

import (
	"testing"

	"ulixes/internal/cost"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/vanswer"
	"ulixes/internal/view"
	"ulixes/internal/workload"
)

func registry(t *testing.T) (*view.Registry, *cost.Model) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	model := &cost.Model{Scheme: u.Scheme, Stats: stats.CollectInstance(u.Instance)}
	return views, model
}

func shape(name string, rels []string, freq, livePages int) workload.ShapeSummary {
	return workload.ShapeSummary{Shape: name, Relations: rels, Freq: freq, LivePages: livePages}
}

// TestGreedyPacksBudgetByBenefitPerByte: the hot shape's relation is chosen
// first; a budget covering one candidate excludes the rest.
func TestGreedyPacksBudgetByBenefitPerByte(t *testing.T) {
	views, _ := registry(t)
	s := New(Config{Views: views, Budget: 100 * TupleBytes})
	d := s.Decide([]workload.ShapeSummary{
		shape("profs", []string{"Professor"}, 10, 100), // benefit 100
		shape("depts", []string{"Dept"}, 1, 2),         // benefit 2
	})
	if len(d.Select) != 1 {
		t.Fatalf("selected %d candidates, want 1 under the budget", len(d.Select))
	}
	if d.Select[0].Def.Relation != "Professor" {
		t.Errorf("selected %s, want Professor (higher benefit per byte)", d.Select[0].Def.Key())
	}
	if d.TotalEstBytes != d.Select[0].EstBytes || d.TotalEstBytes > 100*TupleBytes {
		t.Errorf("TotalEstBytes = %d", d.TotalEstBytes)
	}
	// Without a budget both make it.
	d = New(Config{Views: views}).Decide([]workload.ShapeSummary{
		shape("profs", []string{"Professor"}, 10, 100),
		shape("depts", []string{"Dept"}, 1, 2),
	})
	if len(d.Select) != 2 {
		t.Errorf("unlimited budget selected %d, want 2", len(d.Select))
	}
}

// TestBoundCandidateWinsForSkewedConstants: when one binding dominates a
// single-relation shape, the bound variant's smaller footprint beats the
// unbound extent per byte — and only one view per relation survives.
func TestBoundCandidateWinsForSkewedConstants(t *testing.T) {
	views, _ := registry(t)
	sum := workload.ShapeSummary{
		Shape:      "profs-by-rank",
		Relations:  []string{"Professor"},
		ConstAttrs: []string{"Professor.Rank"},
		Freq:       10,
		LivePages:  100,
		Bindings: []workload.BindingCount{
			{Consts: []string{"Full"}, Freq: 8},
			{Consts: []string{"Assistant"}, Freq: 2},
		},
	}
	d := New(Config{Views: views}).Decide([]workload.ShapeSummary{sum})
	if len(d.Select) != 1 {
		t.Fatalf("selected %d, want 1 (one view per relation)", len(d.Select))
	}
	got := d.Select[0].Def
	want := vanswer.Def{Relation: "Professor", Bindings: []vanswer.Binding{{Attr: "Rank", Val: "Full"}}}
	if got.Key() != want.Key() {
		t.Errorf("selected %s, want %s", got.Key(), want.Key())
	}
}

// TestJoinShapeYieldsBothRelations: a two-atom shape proposes (and under no
// budget, selects) the unbound extent of each relation it touches.
func TestJoinShapeYieldsBothRelations(t *testing.T) {
	views, _ := registry(t)
	d := New(Config{Views: views}).Decide([]workload.ShapeSummary{
		shape("join", []string{"CourseInstructor", "Professor"}, 5, 200),
	})
	if len(d.Select) != 2 {
		t.Fatalf("selected %d, want both join relations", len(d.Select))
	}
	got := map[string]bool{}
	for _, c := range d.Select {
		got[c.Def.Relation] = true
	}
	if !got["CourseInstructor"] || !got["Professor"] {
		t.Errorf("selected %v", got)
	}
}

// TestAntiThrash: once a shape is fully view-answered its recorded live cost
// is zero — the model's cold estimate keeps the benefit visible so the
// selector does not drop the view it just materialized.
func TestAntiThrash(t *testing.T) {
	views, model := registry(t)
	allFromView := workload.ShapeSummary{
		Shape:     "profs",
		Relations: []string{"Professor"},
		Freq:      10,
		FromView:  10, // no live samples at all
	}
	// Without a model there is no signal: nothing selected.
	if d := New(Config{Views: views}).Decide([]workload.ShapeSummary{allFromView}); len(d.Select) != 0 {
		t.Fatalf("modelless selector chose %d candidates from a zero-cost workload", len(d.Select))
	}
	// With the model the cold estimate stands in and the view is kept.
	d := New(Config{Views: views, Model: model}).Decide([]workload.ShapeSummary{allFromView})
	if len(d.Select) != 1 || d.Select[0].Def.Relation != "Professor" {
		t.Fatalf("model-backed selection = %+v, want the Professor view kept", d.Select)
	}
}

// TestRefreshChargeCanKillACandidate: a view whose refresh traffic exceeds
// the workload's savings is not worth keeping.
func TestRefreshChargeCanKillACandidate(t *testing.T) {
	views, model := registry(t)
	barely := shape("courses", []string{"Course"}, 1, 1) // benefit 1 page
	if d := New(Config{Views: views}).Decide([]workload.ShapeSummary{barely}); len(d.Select) != 1 {
		t.Fatalf("chargeless selection dropped a positive-benefit candidate")
	}
	// Confirming every course page unchanged costs one light connection a
	// page; at a tenth of a download each they still outweigh the single
	// page the workload would save.
	if w, err := model.Warm(views.Relation("Course").Navs[0].Expr, 0); err != nil || 0.1*w.LightConnections <= 1 {
		t.Fatalf("Course refresh = %+v (%v), want over 10 light connections", w, err)
	}
	d := New(Config{Views: views, Model: model}).Decide([]workload.ShapeSummary{barely})
	if len(d.Select) != 0 {
		t.Errorf("selected %+v, want nothing (refresh costs more than it saves)", d.Select)
	}
}

// TestDriftGate: selection runs once, then stays quiet while the workload's
// frequency vector is stable, and re-triggers after it drifts.
func TestDriftGate(t *testing.T) {
	views, _ := registry(t)
	s := New(Config{Views: views})
	stable := []workload.ShapeSummary{shape("profs", []string{"Professor"}, 10, 100)}

	if s.ShouldRun(nil) {
		t.Error("empty workload: ShouldRun = true, want false")
	}
	if !s.ShouldRun(stable) {
		t.Fatal("first run: ShouldRun = false, want true")
	}
	s.Decide(stable)
	if s.Runs() != 1 {
		t.Fatalf("Runs = %d, want 1", s.Runs())
	}
	if s.ShouldRun(stable) {
		t.Error("unchanged workload: ShouldRun = true, want false")
	}
	drifted := []workload.ShapeSummary{
		shape("profs", []string{"Professor"}, 2, 20),
		shape("courses", []string{"Course"}, 12, 40),
	}
	if !s.ShouldRun(drifted) {
		t.Error("drifted workload: ShouldRun = false, want true")
	}
}

// TestDeterministic: the same summaries always produce the same decision.
func TestDeterministic(t *testing.T) {
	views, model := registry(t)
	sums := []workload.ShapeSummary{
		shape("a", []string{"Professor"}, 10, 100),
		shape("b", []string{"Dept"}, 10, 100),
		shape("c", []string{"Course"}, 10, 100),
	}
	first := New(Config{Views: views, Model: model}).Decide(sums)
	for i := 0; i < 5; i++ {
		again := New(Config{Views: views, Model: model}).Decide(sums)
		if len(again.Select) != len(first.Select) {
			t.Fatalf("run %d: %d selected, first run had %d", i, len(again.Select), len(first.Select))
		}
		for j := range again.Select {
			if again.Select[j].Def.Key() != first.Select[j].Def.Key() {
				t.Fatalf("run %d: position %d is %s, first run had %s", i, j, again.Select[j].Def.Key(), first.Select[j].Def.Key())
			}
		}
	}
}
