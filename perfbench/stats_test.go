package main

import (
	"encoding/json"
	"testing"
	"time"

	"iotlan"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileRankRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},   // rank 990, 10 samples beyond
		{999, 0.99, 990, false},   // rank 990, only 9 beyond
		{20, 0.50, 10, true},      // rank 10, 10 beyond
		{19, 0.50, 10, false},     // rank 10, 9 beyond
		{200, 0.95, 190, true},    // rank 190, 10 beyond
		{1, 0.50, 1, false},       // a single sample never yields a quantile
		{10000, 0.99, 9900, true}, // rank 9900, 100 beyond
	}
	for _, c := range cases {
		got, ok := percentile(ascending(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as valid")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestJudgeStep(t *testing.T) {
	lim := stepLimits{p99MS: 10, lagMS: 2, conns: 2, minCount: 1000}
	fast := ascending(1000) // ms values 1..1000 are too slow; scale down
	for i := range fast {
		fast[i] /= 1000 // 0.001 .. 1 ms
	}
	slow := ascending(1000)
	cases := []struct {
		name string
		st   stepStats
		want stepVerdict
	}{
		{"pass", stepStats{samples: fast, backlogFirst: 1, backlogLast: 1.5}, stepPass},
		{"generator late", stepStats{samples: fast, lags: ascending(1000)}, stepInvalid},
		{"generator punctual", stepStats{samples: fast, lags: fast}, stepPass},
		{"too few samples", stepStats{samples: fast[:999]}, stepInvalid},
		{"failed op", stepStats{samples: fast, failed: 1}, stepFail},
		{"p99 over limit", stepStats{samples: slow}, stepFail},
		{"backlog grows", stepStats{samples: fast, backlogFirst: 1, backlogLast: 5}, stepFail},
		{"steady backlog of in-flight ops", stepStats{samples: fast, backlogFirst: 2, backlogLast: 5.9}, stepPass},
	}
	for _, c := range cases {
		if got, why := judgeStep(c.st, lim); got != c.want {
			t.Errorf("%s: verdict %v (%s), want %v", c.name, got, why, c.want)
		}
	}
}

func TestLadderMax(t *testing.T) {
	rates := []float64{100, 200, 300, 400}
	cases := []struct {
		verdicts []stepVerdict
		want     float64
	}{
		{[]stepVerdict{stepPass, stepPass, stepPass, stepPass}, 400},
		{[]stepVerdict{stepPass, stepPass, stepFail, stepPass}, 200}, // a pass above a failure does not count
		{[]stepVerdict{stepPass, stepInvalid, stepPass}, 100},        // nor one above an invalid step
		{[]stepVerdict{stepFail}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		if got := ladderMax(rates, c.verdicts); got != c.want {
			t.Errorf("ladderMax(%v) = %v, want %v", c.verdicts, got, c.want)
		}
	}
}

func TestBacklogQuarters(t *testing.T) {
	ms := time.Millisecond
	// One op due every 10 ms over 400 ms. Steady: each finishes 5 ms after
	// it is due. Growing: each finishes 2 ms later than the one before.
	var steady, growing []opRecord
	for i := 0; i < 40; i++ {
		due := time.Duration(i) * 10 * ms
		steady = append(steady, opRecord{due: due, done: due + 5*ms})
		growing = append(growing, opRecord{due: due, done: due + time.Duration(12*i)*ms})
	}
	f, l := backlogQuarters(steady, 0, 400*ms)
	if backlogGrowing(f, l, 1) {
		t.Errorf("steady backlog judged growing: %v → %v", f, l)
	}
	f, l = backlogQuarters(growing, 0, 400*ms)
	if !backlogGrowing(f, l, 1) {
		t.Errorf("growing backlog not detected: %v → %v", f, l)
	}
}

func TestChecksumComparison(t *testing.T) {
	offline := iotlan.Result{ID: "Table 2", Rendered: "rows\n", Metrics: map[string]float64{"a": 0.1, "b": 1e-9, "c": 3}}
	// The served copy arrives as JSON; float metrics survive the round trip.
	b, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}
	var served iotlan.Result
	if err := json.Unmarshal(b, &served); err != nil {
		t.Fatal(err)
	}
	if checksum(served) != checksum(offline) {
		t.Error("JSON round trip changed the checksum")
	}
	changed := iotlan.Result{ID: offline.ID, Rendered: offline.Rendered, Metrics: map[string]float64{"a": 0.1, "b": 2e-9, "c": 3}}
	if checksum(changed) == checksum(offline) {
		t.Error("a changed metric kept the checksum")
	}
	rendered := iotlan.Result{ID: offline.ID, Rendered: "rows!\n", Metrics: offline.Metrics}
	if checksum(rendered) == checksum(offline) {
		t.Error("a changed rendition kept the checksum")
	}
	if checksumAll([]iotlan.Result{offline, rendered}) == checksumAll([]iotlan.Result{rendered, offline}) {
		t.Error("result order does not reach the run checksum")
	}
}
