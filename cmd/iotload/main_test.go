package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"iotlan/internal/obs"
)

// TestStageQuantilesOf folds real serve_stage_ms expositions: the mean is
// exact, and a quantile is reported only once the stage holds ⌈1/(1−q)⌉
// samples (p50: 2, p95: 20, p99: 100).
func TestStageQuantilesOf(t *testing.T) {
	bounds := []float64{1, 2, 5, 10, 25, 50, 100}
	cases := []struct {
		name          string
		observe       []float64
		mean          float64
		p50, p95, p99 bool
		wantCount     uint64
	}{
		{name: "one sample: mean only", observe: []float64{7}, mean: 7, wantCount: 1},
		{name: "two samples: p50 only", observe: []float64{3, 8}, mean: 5.5, p50: true, wantCount: 2},
		{name: "thirty samples: p50 and p95, no p99", observe: ramp(30), mean: 15.5, p50: true, p95: true, wantCount: 30},
		{name: "hundred samples: every quantile", observe: ramp(100), mean: 50.5, p50: true, p95: true, p99: true, wantCount: 100},
		{name: "nineteen samples: p95 still omitted", observe: ramp(19), mean: 10, p50: true, wantCount: 19},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			h := reg.Histogram("serve_stage_ms", bounds, "stage", "artifact.build")
			reg.Histogram("serve_stage_ms", bounds, "stage", "idle")
			for _, v := range tc.observe {
				h.Observe(v)
			}
			var page bytes.Buffer
			if err := reg.WritePrometheus(&page); err != nil {
				t.Fatal(err)
			}
			samples, _, err := obs.ParsePrometheus(page.String())
			if err != nil {
				t.Fatal(err)
			}
			got, err := stageQuantilesOf(samples)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := got["idle"]; ok {
				t.Fatalf("stage with no samples reported: %+v", got["idle"])
			}
			sq, ok := got["artifact.build"]
			if !ok {
				t.Fatal("artifact.build missing")
			}
			if sq.Count != tc.wantCount {
				t.Fatalf("count %d, want %d", sq.Count, tc.wantCount)
			}
			if math.Abs(sq.Mean-tc.mean) > 1e-9 {
				t.Fatalf("mean %v, want exact %v", sq.Mean, tc.mean)
			}
			for _, q := range []struct {
				name string
				got  *float64
				want bool
			}{{"p50", sq.P50, tc.p50}, {"p95", sq.P95, tc.p95}, {"p99", sq.P99, tc.p99}} {
				if (q.got != nil) != q.want {
					t.Fatalf("%s present=%v, want %v", q.name, q.got != nil, q.want)
				}
				// An omitted quantile must not print as 0 in the record.
				js, err := json.Marshal(sq)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(js), `"`+q.name+`"`) != q.want {
					t.Fatalf("%s in JSON %s, want present=%v", q.name, js, q.want)
				}
			}
		})
	}
}

// TestStageQuantilesOfNoHistograms: a page without serve_stage_ms is an
// error, not an empty record.
func TestStageQuantilesOfNoHistograms(t *testing.T) {
	if _, err := stageQuantilesOf(nil); err == nil {
		t.Fatal("want an error for a page with no serve_stage_ms histograms")
	}
}

// ramp returns 1, 2, …, n.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
