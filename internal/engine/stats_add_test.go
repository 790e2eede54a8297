package engine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ulixes/internal/site"
)

// TestExecStatsAdd pins the aggregation semantics the ulixesd server relies
// on for its running totals: counters sum, PeakInFlight takes the maximum,
// flags OR, and the per-URL lists of the added execution are dropped. TestExecStatsAddFoldsEveryField
// guarantees no field is missing from Add; this test guarantees each field
// is folded with the right operator.
func TestExecStatsAdd(t *testing.T) {
	errA := errors.New("a down")
	total := ExecStats{
		Pages:        3,
		Bytes:        100,
		Wall:         2 * time.Second,
		PeakInFlight: 4,
		Retries:      1,
		FailedPages:  []string{"http://a/1"},
		Failures:     []site.FetchFailure{{URL: "http://a/1", Err: errA, Retries: 1}},
		Degraded:     true,
		CacheHits:    2,
		PlanWall:     5 * time.Millisecond,
	}
	total.Add(ExecStats{
		Pages:            2,
		Bytes:            50,
		Wall:             time.Second,
		PeakInFlight:     2, // below current peak: must not lower it
		Retries:          2,
		FailedPages:      []string{"http://b/2"},
		Failures:         []site.FetchFailure{{URL: "http://b/2", Err: errA}},
		CacheHits:        1,
		Revalidations:    3,
		LightConnections: 4,
		Stale:            1,
		StalePages:       []string{"http://c/3"},
		Hedges:           2,
		HedgeWins:        1,
		BreakerFastFails: 1,
		Updates:          1,
		PlanCached:       true,
		PlanWall:         time.Millisecond,
		AnsweredFromView: true,
	})

	want := ExecStats{
		Pages:            5,
		Bytes:            150,
		Wall:             3 * time.Second,
		PeakInFlight:     4,
		Retries:          3,
		FailedPages:      []string{"http://a/1"},
		Failures:         []site.FetchFailure{{URL: "http://a/1", Err: errA, Retries: 1}},
		Degraded:         true,
		CacheHits:        3,
		Revalidations:    3,
		LightConnections: 4,
		Stale:            1,
		Hedges:           2,
		HedgeWins:        1,
		BreakerFastFails: 1,
		Updates:          1,
		PlanCached:       true,
		PlanWall:         6 * time.Millisecond,
		AnsweredFromView: true,
	}
	if !reflect.DeepEqual(total, want) {
		t.Errorf("Add result mismatch:\n got %+v\nwant %+v", total, want)
	}
}

// TestExecStatsAddPeakRaises covers the opposite max direction: a later
// execution with a higher peak raises the total.
func TestExecStatsAddPeakRaises(t *testing.T) {
	var total ExecStats
	total.Add(ExecStats{PeakInFlight: 2})
	total.Add(ExecStats{PeakInFlight: 7})
	total.Add(ExecStats{PeakInFlight: 3})
	if total.PeakInFlight != 7 {
		t.Errorf("PeakInFlight = %d, want 7", total.PeakInFlight)
	}
}

// TestExecStatsAddFoldsEveryField fills every ExecStats field with a distinct
// non-zero value and folds it into a zero total: any counter or flag Add
// forgets (or folds from the wrong source) leaves the total different from
// the input, and any per-URL list it keeps leaves the total's list non-nil.
// A field of a kind fill does not know fails the test, so a new field type
// is a conscious extension rather than a silent gap.
func TestExecStatsAddFoldsEveryField(t *testing.T) {
	var full, want ExecStats
	v, w := reflect.ValueOf(&full).Elem(), reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			continue // lists are not folded: want keeps nil
		default:
			t.Fatalf("field %s: fill does not handle kind %s", v.Type().Field(i).Name, f.Kind())
		}
		w.Field(i).Set(f)
	}
	var total ExecStats
	total.Add(full)
	if !reflect.DeepEqual(total, want) {
		t.Errorf("Add into zero folded the wrong fields:\n got %+v\nwant %+v", total, want)
	}
}
