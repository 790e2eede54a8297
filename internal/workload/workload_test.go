package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ulixes/internal/cq"
)

func parse(t *testing.T, src string) *cq.Query {
	t.Helper()
	q, err := cq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestShapesAggregateAcrossConstants: queries differing only in constants are
// one shape with per-binding counts, and the summary is ordered by frequency.
func TestShapesAggregateAcrossConstants(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 3; i++ {
		r.Record(parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"), Observed{Pages: 10, Accesses: 12, Wall: time.Millisecond})
	}
	r.Record(parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Assistant'"), Observed{Pages: 10, Accesses: 10})
	r.Record(parse(t, "SELECT d.DName FROM Dept d"), Observed{Pages: 2, Accesses: 2})

	sums := r.Snapshot()
	if len(sums) != 2 {
		t.Fatalf("got %d shapes, want 2", len(sums))
	}
	prof := sums[0]
	if prof.Freq != 4 {
		t.Fatalf("most frequent shape has freq %d, want 4", prof.Freq)
	}
	if !reflect.DeepEqual(prof.Relations, []string{"Professor"}) {
		t.Errorf("Relations = %v", prof.Relations)
	}
	if !reflect.DeepEqual(prof.ConstAttrs, []string{"Professor.Rank"}) {
		t.Errorf("ConstAttrs = %v", prof.ConstAttrs)
	}
	if prof.LivePages != 40 || prof.Accesses != 46 || prof.Wall != 3*time.Millisecond {
		t.Errorf("cost aggregation: pages=%d accesses=%d wall=%v", prof.LivePages, prof.Accesses, prof.Wall)
	}
	wantBindings := []BindingCount{
		{Consts: []string{"Full"}, Freq: 3},
		{Consts: []string{"Assistant"}, Freq: 1},
	}
	if !reflect.DeepEqual(prof.Bindings, wantBindings) {
		t.Errorf("Bindings = %+v, want %+v", prof.Bindings, wantBindings)
	}
	if sums[1].Freq != 1 || len(sums[1].ConstAttrs) != 0 {
		t.Errorf("second shape: %+v", sums[1])
	}
}

// TestFromViewSamplesExcludedFromLivePages: view-answered executions count
// toward frequency but not toward the live navigation cost — the benefit
// signal the selector divides by live executions only.
func TestFromViewSamplesExcludedFromLivePages(t *testing.T) {
	r := NewRecorder(0)
	q := "SELECT p.PName FROM Professor p"
	r.Record(parse(t, q), Observed{Pages: 20, Accesses: 20})
	r.Record(parse(t, q), Observed{Pages: 0, Accesses: 0, FromView: true})
	r.Record(parse(t, q), Observed{Pages: 0, Accesses: 0, FromView: true})

	sums := r.Snapshot()
	if len(sums) != 1 {
		t.Fatalf("got %d shapes, want 1", len(sums))
	}
	s := sums[0]
	if s.Freq != 3 || s.FromView != 2 || s.LivePages != 20 {
		t.Errorf("freq=%d fromView=%d livePages=%d, want 3/2/20", s.Freq, s.FromView, s.LivePages)
	}
}

// TestRingEvictsOldest: the ring keeps only the most recent capacity samples
// and counts evictions.
func TestRingEvictsOldest(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(parse(t, fmt.Sprintf("SELECT p.PName FROM Professor p WHERE p.Rank = 'R%d'", i)), Observed{Pages: 1})
	}
	if r.Len() != 2 {
		t.Fatalf("ring holds %d, want 2", r.Len())
	}
	st := r.Stats()
	if st.Recorded != 5 || st.Evicted != 3 || st.Dropped != 0 {
		t.Errorf("stats %+v, want 5 recorded / 3 evicted", st)
	}
	// Only the newest two bindings survive.
	sums := r.Snapshot()
	if len(sums) != 1 || sums[0].Freq != 2 {
		t.Fatalf("snapshot %+v", sums)
	}
	got := map[string]bool{}
	for _, b := range sums[0].Bindings {
		got[b.Consts[0]] = true
	}
	if !got["R3"] || !got["R4"] {
		t.Errorf("surviving bindings %v, want R3 and R4", got)
	}
}

// TestUncanonicalizableDropped: constants containing the placeholder
// alphabet (NUL) cannot be parameterized; such queries are dropped, not
// mis-bucketed.
func TestUncanonicalizableDropped(t *testing.T) {
	r := NewRecorder(0)
	q := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
	q.Consts[0].Val = "evil\x00value"
	r.Record(q, Observed{Pages: 1})
	st := r.Stats()
	if st.Dropped != 1 || st.Recorded != 0 {
		t.Errorf("stats %+v, want 1 dropped, 0 recorded", st)
	}
	if r.Len() != 0 {
		t.Errorf("ring holds %d, want 0", r.Len())
	}
}
