package main

import (
	"testing"
	"time"
)

func TestPercentileAndSamplesBeyond(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		xs     []float64
		p      float64
		want   float64
		beyond int
	}{
		{hundred, 50, 50, 50},
		{hundred, 90, 90, 10},
		{hundred, 99, 99, 1},
		{hundred, 100, 100, 0},
		{hundred[:40], 90, 36, 4}, // the smallest cold_shapes run
		{[]float64{7}, 90, 7, 0},
		{nil, 50, 0, 0},
	} {
		got, beyond := percentile(tc.xs, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(n=%d, p%v) = %v with %d beyond, want %v with %d", len(tc.xs), tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
}

func TestSmoothedPercentileAveragesNeighbouringRanks(t *testing.T) {
	// A cliff at the median: nearest rank picks one side, the window both.
	cliff := []float64{1, 2, 3, 4, 5, 100, 200, 300, 400, 500}
	if got, beyond := smoothed(cliff, 50); got != (2+3+4+5+100+200+300)/7.0 || beyond != 5 {
		t.Errorf("smoothed p50 over a cliff = %v with %d beyond", got, beyond)
	}
	// Near the end the window shrinks and stays centred on the rank.
	if got, beyond := smoothed(cliff, 90); got != 400 || beyond != 1 {
		t.Errorf("smoothed p90 of ten = %v with %d beyond, want the mean of ranks 8 to 10", got, beyond)
	}
	if got, _ := smoothed([]float64{7}, 90); got != 7 {
		t.Errorf("smoothed p90 of one sample = %v", got)
	}
	if got, beyond := smoothed(nil, 50); got != 0 || beyond != 0 {
		t.Errorf("smoothed p50 of nothing = %v, %d", got, beyond)
	}
}

func TestSummarizePrintsOnlySupportedPercentiles(t *testing.T) {
	from := time.Unix(1000, 0)
	samples := func(n int) []sample {
		out := make([]sample, n)
		for i := range out {
			out[i] = sample{Start: from, Dur: time.Duration(i+1) * time.Millisecond}
		}
		return out
	}
	s, rate := summarize(samples(500), from, from.Add(time.Second), 1)
	if s.N != 500 || s.P50 != 250 || s.P90 != 450 || s.Beyond90 != 50 || rate != 500 {
		t.Errorf("summary of 500: %+v at %v/s", s, rate)
	}
	if s.P99 != 0 || s.P999 != 0 {
		t.Errorf("500 samples leave 5 beyond p99, fewer than %d: p99 and p999 must stay unreported, got %+v", minBeyond, s)
	}
	s, _ = summarize(samples(2000), from, from.Add(3*time.Second), 1)
	if s.P99 != 1980 || s.P999 != 0 {
		t.Errorf("2000 samples leave 20 beyond p99 and 2 beyond p999: %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// One stalled slice out of six moves neither the rate nor the percentiles.
func TestSummarizeReportsTheMedianSlice(t *testing.T) {
	from := time.Unix(1000, 0)
	to := from.Add(6 * time.Second) // six slices of one second
	var samples []sample
	for slice, n := range []int{10, 10, 2, 10, 10, 10} {
		dur := time.Millisecond
		if n == 2 {
			dur = 400 * time.Millisecond
		}
		for i := 0; i < n; i++ {
			start := from.Add(time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond)
			samples = append(samples, sample{Start: start, Dur: dur})
		}
	}
	// An operation that answers after the window belongs to no slice.
	samples = append(samples, sample{Start: to.Add(-time.Millisecond), Dur: time.Second})
	s, rate := summarize(samples, from, to, 6)
	if rate != 10 || s.P50 != 1 || s.P90 != 1 {
		t.Errorf("rate %v, p50 %v, p90 %v; want 10, 1, 1", rate, s.P50, s.P90)
	}
	if s.N != 53 || s.Beyond90 != 0 {
		t.Errorf("n = %d with %d beyond p90 in the smallest slice, want 53 and 0", s.N, s.Beyond90)
	}
}

func TestDueTimesIgnoreLateReplies(t *testing.T) {
	start := time.Unix(2000, 0)
	for i, want := range []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond} {
		if got := dueTime(start, 20, i).Sub(start); got != want {
			t.Errorf("operation %d due after %v, want %v", i, got, want)
		}
	}
	if got := dueTime(start, 20, 20*60).Sub(start); got != time.Minute {
		t.Errorf("operation 1200 at 20/s due after %v, want 1m", got)
	}
}

func TestDeltaLagsPairMutationsWithDeltas(t *testing.T) {
	t0 := time.Unix(3000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	muts := []mutation{
		{Due: at(0), Op: "edit-rank"},     // warm-up: paired but not timed
		{Due: at(50), Op: "touch"},        // causes no delta
		{Due: at(100), Op: "edit-course"}, // first delta of subscription 1
		{Due: at(150), Op: "edit-rank"},   // second delta of subscription 0
		{Due: at(200), Op: "edit-rank"},   // its delta never arrived
		{Due: at(250), Op: ""},            // failed POST
	}
	arrivals := [][]time.Time{
		{at(-10), at(3), at(157)}, // snapshot, then one delta per edit-rank
		{at(-9), at(104)},
		{at(-8)},
		{at(-7)},
	}
	lags, missing := deltaLags(muts, arrivals, at(100))
	if missing != 1 {
		t.Errorf("missing = %d, want 1", missing)
	}
	want := []time.Duration{4 * time.Millisecond, 7 * time.Millisecond}
	if len(lags) != len(want) || lags[0] != want[0] || lags[1] != want[1] {
		t.Errorf("lags = %v, want %v (timed from the due instant)", lags, want)
	}
}

func TestRenderRowsMatchesTupleRendering(t *testing.T) {
	got := renderRows([]string{"PName", "Rank"}, [][]string{{"Prof. 001", "Full"}})
	if !got["<PName: Prof. 001, Rank: Full>"] || len(got) != 1 {
		t.Errorf("rendered %v", got)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "nalg.eval", Start: 10, End: 90},
		// Two overlapping fetches and one apart: they cover 20..50 and 60..70.
		{ID: 3, Parent: 2, Name: "pagecache.fetch_all", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "pagecache.fetch_all", Start: 30, End: 50},
		{ID: 5, Parent: 2, Name: "pagecache.fetch", Start: 60, End: 70},
		{ID: 6, Parent: 3, Name: "site.get", Start: 22, End: 38},
		// A child that outlives its parent counts only inside it.
		{ID: 7, Parent: 5, Name: "site.get", Start: 65, End: 80},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 20, 2: 40, 3: 4, 4: 20, 5: 5, 6: 16, 7: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
