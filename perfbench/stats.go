package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"iotlan"
)

// minBeyond is the honest-quantile rule: a percentile is reported only when
// at least this many samples lie strictly above its rank.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and whether it is
// reportable under the minBeyond rule. sorted must be ascending.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median of unsorted values (mean of the middle pair for even counts). It
// is only used for repetition summaries, never for tail quantiles.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sortedMS converts durations to ascending milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// stepVerdict is the outcome of one open-loop rate step.
type stepVerdict int

const (
	stepPass stepVerdict = iota
	// stepFail: the system missed the p99 limit, refused or failed an
	// operation, or let its backlog grow.
	stepFail
	// stepInvalid: the measurement cannot be scored — the generator itself
	// ran late, or too few samples lie beyond the p99 rank.
	stepInvalid
)

func (v stepVerdict) String() string {
	return [...]string{"pass", "fail", "invalid"}[v]
}

// stepStats summarises one rate step for judgeStep.
type stepStats struct {
	rate    float64
	samples []float64 // latencies from due time, ms, ascending
	failed  int
	lags    []float64 // generator lateness, ms, ascending
	// backlogFirst/backlogLast are the mean number of due-but-unfinished
	// operations over the first and last quarter of the step.
	backlogFirst, backlogLast float64
}

// stepLimits are the fixed pass criteria of a ladder.
type stepLimits struct {
	p99MS    float64
	lagMS    float64 // generator lateness above this invalidates the step
	conns    int
	minCount int
}

// judgeStep decides one ladder step: invalid when the generator ran late or
// the sample is too small for an honest p99; failed on any failed
// operation, a p99 over the limit, or a growing backlog; else passed.
func judgeStep(st stepStats, lim stepLimits) (stepVerdict, string) {
	if lag99, _ := percentile(st.lags, 0.99); lag99 > lim.lagMS {
		return stepInvalid, fmt.Sprintf("generator lag p99 %.2f ms > %.2f ms", lag99, lim.lagMS)
	}
	p99, ok := percentile(st.samples, 0.99)
	if !ok || len(st.samples) < lim.minCount {
		return stepInvalid, fmt.Sprintf("%d samples, too few for p99", len(st.samples))
	}
	if st.failed > 0 {
		return stepFail, fmt.Sprintf("%d failed", st.failed)
	}
	if p99 > lim.p99MS {
		return stepFail, fmt.Sprintf("p99 %.2f ms > %.2f ms", p99, lim.p99MS)
	}
	if backlogGrowing(st.backlogFirst, st.backlogLast, lim.conns) {
		return stepFail, fmt.Sprintf("backlog grew %.1f → %.1f", st.backlogFirst, st.backlogLast)
	}
	return stepPass, fmt.Sprintf("p99 %.2f ms", p99)
}

// backlogGrowing reports whether the due-but-unfinished count at the end of
// a step is well above its start: more than double plus one request per
// connection, so the ordinary in-flight operations never count as growth.
func backlogGrowing(first, last float64, conns int) bool {
	return last > 2*first+float64(conns)
}

// ladderMax walks verdicts in ascending rate order and returns the highest
// passing rate before the first failed or invalid step (0 if none passed).
func ladderMax(rates []float64, verdicts []stepVerdict) float64 {
	best := 0.0
	for i, v := range verdicts {
		if v != stepPass {
			break
		}
		best = rates[i]
	}
	return best
}

// backlogAt counts operations due at or before t and not finished by t.
func backlogAt(ops []opRecord, t time.Duration) int {
	n := 0
	for _, o := range ops {
		if o.due <= t && o.done > t {
			n++
		}
	}
	return n
}

// backlogQuarters samples the backlog on a grid over [from, to) and returns
// the mean over the first and the last quarter of the grid.
func backlogQuarters(ops []opRecord, from, to time.Duration) (first, last float64) {
	const points = 40
	step := (to - from) / points
	if step <= 0 {
		return 0, 0
	}
	var f, l int
	for i := 0; i < points/4; i++ {
		f += backlogAt(ops, from+time.Duration(i)*step)
		l += backlogAt(ops, from+time.Duration(points-points/4+i)*step)
	}
	q := float64(points / 4)
	return float64(f) / q, float64(l) / q
}

// checksum hashes a result's ID, rendition and sorted metrics, so an
// artifact served over HTTP and one computed offline compare byte for byte.
func checksum(r iotlan.Result) string {
	h := sha256.New()
	writeResult(h, r)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checksumAll hashes an ordered list of results.
func checksumAll(rs []iotlan.Result) string {
	h := sha256.New()
	for _, r := range rs {
		writeResult(h, r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeResult(w io.Writer, r iotlan.Result) {
	io.WriteString(w, r.ID)
	io.WriteString(w, "\x00")
	io.WriteString(w, r.Rendered)
	io.WriteString(w, "\x00")
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%v\n", k, r.Metrics[k])
	}
}
