package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"iotlan"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
	"iotlan/internal/serve"
	"iotlan/internal/serve/store"
)

// serveConfig sizes one serving workload. Each run is a sequence of rounds;
// every round sets up a fresh server and upload set, absorbs closed-loop
// batches (wall_s), runs its share of the fixed-rate step, and checks the
// served artifacts against the offline Study; the last round also climbs
// the rest of the rate ladder.
type serveConfig struct {
	name    string
	durable bool
	// households is the ID set a mixed round re-uploads with new contents
	// every pass; 0 means every upload is a distinct new household.
	households int
	warmup     int // closed-loop uploads in set-up (mixed: the first load)
	batch      int // uploads per closed-loop batch
	batches    int
	// ladder is the ascending offered upload rates (per second); the first
	// is the workload's fixed rate for the latency figures.
	ladder     []float64
	stepMin    time.Duration
	minSamples int
	// p99LimitMS is the ladder's latency limit. A step whose generator ran
	// later than a quarter of it at p99 is invalid.
	p99LimitMS float64
	// readRate is the fixed rate of artifact GETs during the rate steps.
	readRate float64
	// checkpointEvery places a durable round's checkpoint: 3,100 records is
	// past the set-up load and the closed-loop batches (3,000), so the
	// checkpoint's bulk writes and fsyncs land in the fixed-rate step, where
	// they show in the latency tail, not in the batches that time wall_s.
	checkpointEvery int
	// roundSeconds is the nominal length of one round: a run makes
	// --seconds/roundSeconds rounds, at least two. The round count, and so
	// the work of a run, depends only on --seconds, never on speed.
	roundSeconds float64
}

var ingestServe = serveConfig{
	name: "serve-ingest", warmup: 500, batch: 1000, batches: 3,
	ladder: []float64{1000, 1500, 2000, 2500}, stepMin: time.Second, minSamples: 1000,
	p99LimitMS: 20, roundSeconds: 5,
}

var mixedServe = serveConfig{
	name: "serve-mixed", durable: true, households: 1000, warmup: 1000, batch: 250, batches: 8,
	ladder: []float64{300, 600, 900, 1200}, stepMin: time.Second, minSamples: 1000,
	p99LimitMS: 200, readRate: 25, checkpointEvery: 3100, roundSeconds: 6.5,
}

// durableWALSync is a durable server's WAL mode. It is SyncNone: each record
// still reaches the kernel before the upload is acknowledged, but no fsync
// waits on the shared disk, whose latency swings between runs would drown
// every other cost; the fsync'd append is measured on its own as
// store.wal_append_us.
const durableWALSync = store.SyncNone

// maxLayerSample bounds the households a traced run replays through the
// wire codec and the fold.
const maxLayerSample = 2000

// readArtifacts are the artifacts serve-mixed reads and every round checks.
var readArtifacts = []string{"table2", "mitigations"}

const (
	opUpload = iota
	opRead
)

// op is one HTTP request of a phase. Fixed ops are due at a scheduled
// offset; closed ops are sent as soon as their connection is free.
type op struct {
	kind  int
	fixed bool
	due   time.Duration // offset from the phase epoch (fixed ops)
	path  string
	body  []byte
	// hh and idx are an upload's household ID and corpus index.
	hh  string
	idx int
}

// opRecord is one op's outcome, times as offsets from the phase epoch.
type opRecord struct {
	kind            int
	fixed           bool
	due, send, done time.Duration
	lag             time.Duration // generator lateness (fixed ops)
	failed          bool
	hh              string
	idx             int
}

// latency is measured from the due time (open loop) or the send time
// (closed loop).
func (r opRecord) latency() time.Duration {
	if r.fixed {
		return r.done - r.due
	}
	return r.done - r.send
}

// client is the load generator: one HTTP connection per CPU, each walking
// its own op list in order, so a household pinned to a connection is
// uploaded strictly in sequence.
type client struct {
	base  string
	conns []*http.Client
}

func newClient(base string) *client {
	c := &client{base: base}
	for i := 0; i < runtime.NumCPU(); i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

func (c *client) do(conn int, o op) bool {
	var resp *http.Response
	var err error
	if o.kind == opUpload {
		resp, err = c.conns[conn].Post(c.base+o.path, "application/x-ndjson", bytes.NewReader(o.body))
	} else {
		resp, err = c.conns[conn].Get(c.base + o.path)
	}
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.conns[0].Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// phase runs per-connection op lists from one epoch. A connection sends its
// next fixed op when due and, between them, its closed ops back to back;
// with closedOnly it stops once its closed ops are done, dropping fixed ops
// not yet due. Returns every sent op's record.
func (c *client) phase(lists [][]op, closedOnly bool) []opRecord {
	epoch := time.Now().Add(2 * time.Millisecond)
	out := make([][]opRecord, len(lists))
	var wg sync.WaitGroup
	for ci := range lists {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var fixed, closed []op
			for _, o := range lists[ci] {
				if o.fixed {
					fixed = append(fixed, o)
				} else {
					closed = append(closed, o)
				}
			}
			prevDone := time.Duration(0)
			for len(fixed) > 0 || len(closed) > 0 {
				if closedOnly && len(closed) == 0 {
					break
				}
				now := time.Since(epoch)
				var o op
				switch {
				case len(fixed) > 0 && fixed[0].due <= now:
					o, fixed = fixed[0], fixed[1:]
				case len(closed) > 0:
					o, closed = closed[0], closed[1:]
				default:
					sleep(fixed[0].due - now)
					continue
				}
				rec := opRecord{kind: o.kind, fixed: o.fixed, due: o.due, send: time.Since(epoch), hh: o.hh, idx: o.idx}
				if o.fixed {
					rec.lag = rec.send - max(o.due, prevDone)
				}
				rec.failed = !c.do(ci, o)
				rec.done = time.Since(epoch)
				prevDone = rec.done
				out[ci] = append(out[ci], rec)
			}
		}(ci)
	}
	wg.Wait()
	var all []opRecord
	for _, recs := range out {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].send < all[j].send })
	return all
}

// sleep blocks the calling goroutine's thread in nanosleep(2): the runtime
// timer wakes sleepers at millisecond granularity, which would make the
// open-loop generator itself run up to a millisecond late.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the loop re-checks
}

// serveRound is one round's set-up state.
type serveRound struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	cl      *client
	dataDir string
	corpus  *corpus
	// next is the corpus index of the next upload; final maps a household
	// ID to the index of its last acknowledged upload.
	next  int
	final map[string]int
}

// stepUploads is the number of uploads of the step at rate: stepMin's
// worth, and at least minSamples so its p99 is reportable.
func (c serveConfig) stepUploads(rate float64) int {
	return max(c.minSamples, int(math.Ceil(rate*c.stepMin.Seconds())))
}

// corpus generates a round's upload records on demand. record(i) is
// deterministic, so a round holds only the bodies of the phase in flight
// and the check regenerates what was uploaded.
type corpus struct {
	// households > 0 re-uploads that fixed ID set: upload i carries the ID
	// of household i%households and the devices of generated household i,
	// so every upload after the first retracts and refolds, within one
	// product world. 0 makes every upload a distinct new household.
	households int
	base       int
	gen        *inspector.Generator
	ids        []string
}

// productWorld seeds the generator's vendor and product catalog. It is the
// same for every run: the run's seed picks which households of that world
// are uploaded, so seeds vary the inputs without changing how many
// distinct identifiers the whole fleet can hold.
const productWorld = 1

func newCorpus(seed int64, round, households int) *corpus {
	cp := &corpus{households: households, base: int(seed)*100_000_000 + round*1_000_000,
		gen: inspector.NewGenerator(productWorld)}
	for h := 0; h < households; h++ {
		cp.ids = append(cp.ids, cp.gen.Household(cp.base+h).ID)
	}
	return cp
}

func (cp *corpus) record(i int) *inspector.Household {
	hh := cp.gen.Household(cp.base + i)
	if cp.households > 0 {
		hh.ID = cp.ids[i%cp.households]
	}
	return hh
}

func (c serveConfig) setupRound(o options, round int) (*serveRound, error) {
	cfg := serve.Config{Shards: 8}
	rd := &serveRound{served: make(chan error, 1), final: map[string]int{}}
	if c.durable {
		rd.dataDir = filepath.Join(o.scratch, fmt.Sprintf("round-%d", round))
		cfg.DataDir, cfg.CheckpointEvery, cfg.WALSync = rd.dataDir, c.checkpointEvery, durableWALSync
	}
	srv, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rd.srv, rd.httpSrv = srv, serve.NewHTTPServer("", srv.Mux())
	go func() { rd.served <- rd.httpSrv.Serve(ln) }()
	rd.cl = newClient("http://" + ln.Addr().String())
	rd.corpus = newCorpus(o.seed, round, c.households)

	lists, err := rd.takeUploads(c.warmup, false, 0)
	if err == nil {
		if recs := rd.phase(lists, false); countFailed(recs) > 0 {
			err = fmt.Errorf("warm-up: %d of %d uploads failed", countFailed(recs), len(recs))
		}
	}
	if err != nil {
		rd.close()
		return nil, err
	}
	return rd, nil
}

// takeUploads generates and encodes the next n uploads and deals them onto
// connections by household, so a household is always uploaded over the
// same connection and therefore in order. Fixed uploads are due at rate per
// second.
func (rd *serveRound) takeUploads(n int, fixed bool, rate float64) ([][]op, error) {
	lists := make([][]op, len(rd.cl.conns))
	for k := 0; k < n; k++ {
		i := rd.next
		rd.next++
		hh := rd.corpus.record(i)
		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, []*inspector.Household{hh}); err != nil {
			return nil, err
		}
		slot := i
		if rd.corpus.households > 0 {
			slot = i % rd.corpus.households
		}
		o := op{kind: opUpload, fixed: fixed, path: "/v1/ingest/inspector", body: buf.Bytes(), hh: hh.ID, idx: i}
		if fixed {
			o.due = time.Duration(float64(k) / rate * float64(time.Second))
		}
		ci := slot % len(lists)
		lists[ci] = append(lists[ci], o)
	}
	return lists, nil
}

// phase runs op lists on the round's client and records, per household,
// the last upload the server acknowledged: the offline check compares the
// served artifacts with exactly those. A household's uploads go over one
// connection in corpus order, so its acknowledged upload with the highest
// index is the one the server holds.
func (rd *serveRound) phase(lists [][]op, closedOnly bool) []opRecord {
	recs := rd.cl.phase(lists, closedOnly)
	for _, r := range recs {
		if r.kind != opUpload || r.failed {
			continue
		}
		if cur, ok := rd.final[r.hh]; !ok || r.idx > cur {
			rd.final[r.hh] = r.idx
		}
	}
	return recs
}

// addReads schedules artifact GETs at rate over [0, span), alternating the
// read artifacts and the connections.
func addReads(lists [][]op, rate float64, span time.Duration) {
	if rate <= 0 {
		return
	}
	n := int(rate * span.Seconds())
	for k := 0; k < n; k++ {
		o := op{kind: opRead, fixed: true, path: "/v1/artifacts/" + readArtifacts[k%len(readArtifacts)],
			due: time.Duration(float64(k) / rate * float64(time.Second))}
		ci := k % len(lists)
		lists[ci] = append(lists[ci], o)
	}
	for _, l := range lists {
		sort.SliceStable(l, func(i, j int) bool { return l[i].due < l[j].due })
	}
}

func (rd *serveRound) close() {
	rd.cl.close()
	rd.httpSrv.Close()
	<-rd.served
	rd.srv.Close()
	if rd.dataDir != "" {
		os.RemoveAll(rd.dataDir)
	}
}

func countFailed(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.failed {
			n++
		}
	}
	return n
}

// serveTotals accumulates a run's samples across rounds.
type serveTotals struct {
	// fixed pools the fixed-rate step (the ladder's first rate) across
	// rounds; each round runs its share of minSamples uploads at it.
	fixed      stepStats
	fixedLags  []float64
	reads      []time.Duration
	lags       []time.Duration
	verdicts   []stepVerdict
	maxRate    float64
	stageSum   map[string]float64
	stageCount map[string]float64
	counters   map[string]float64
	selfcheck  int
}

func runServe(o options, c serveConfig) *report {
	rep := &report{layer: map[string]float64{}}
	tot := &serveTotals{stageSum: map[string]float64{}, stageCount: map[string]float64{}, counters: map[string]float64{}}
	var sample []*inspector.Household
	rounds := max(2, int(o.seconds.Seconds()/c.roundSeconds))
	for round := 0; round < rounds; round++ {
		var rd *serveRound
		var err error
		settle()
		start := time.Now()
		rd, err = c.setupRound(o, round)
		if err != nil {
			rep.check("setup", false, "round %d: %v", round, err)
			return rep
		}
		rep.setup = append(rep.setup, time.Since(start).Seconds())
		if err := c.measureRound(rep, tot, rd, round, rounds); err != nil {
			rd.close()
			rep.check("measure", false, "round %d: %v", round, err)
			return rep
		}
		if o.trace {
			// Scraped before the correctness check, whose own artifact
			// reads are not part of the workload.
			if err := scrapeServer(tot, rd.cl); err != nil {
				rep.check("metrics_scrape", false, "%v", err)
			}
			if sample == nil {
				for i := 0; i < min(rd.next, maxLayerSample); i++ {
					sample = append(sample, rd.corpus.record(i))
				}
			}
		}
		c.checkRound(rep, tot, rd, round)
	}

	upload := tot.fixed.samples
	p50, _ := percentile(upload, 0.50)
	p99, ok99 := percentile(upload, 0.99)
	rep.figure("upload_p50_ms", p50, "ms", len(upload))
	if ok99 {
		rep.figure("upload_p99_ms", p99, "ms", len(upload))
	}
	rep.figure("upload_max_rate", tot.maxRate, "1/s", len(tot.verdicts))
	reads := sortedMS(tot.reads)
	r50, _ := percentile(reads, 0.50)
	r90, okr := percentile(reads, 0.90)
	if c.readRate > 0 {
		rep.figure("read_p50_ms", r50, "ms", len(reads))
		if okr {
			rep.figure("read_p90_ms", r90, "ms", len(reads))
		}
	}
	lags := sortedMS(tot.lags)
	lag99, _ := percentile(lags, 0.99)
	lagMax := 0.0
	if len(lags) > 0 {
		lagMax = lags[len(lags)-1]
	}
	rep.figure("gen_lag_p99_ms", lag99, "ms", len(lags))
	rep.figure("gen_lag_max_ms", lagMax, "ms", len(lags))

	if o.trace {
		L := rep.layer
		L["client.upload_p50_ms"], L["client.upload_count"] = p50, float64(len(upload))
		if ok99 {
			L["client.upload_p99_ms"] = p99
		}
		L["client.upload_max_rate"] = tot.maxRate
		L["client.read_count"] = float64(len(reads))
		if c.readRate > 0 {
			L["client.read_p50_ms"] = r50
			if okr {
				L["client.read_p90_ms"] = r90
			}
		}
		L["client.gen_lag_p99_ms"], L["client.gen_lag_max_ms"] = lag99, lagMax
		if rep.attempted > 0 {
			L["client.fail_frac"] = float64(rep.failed) / float64(rep.attempted)
		}
		for _, st := range serveStages {
			if n := tot.stageCount[st.stage]; n > 0 {
				L[st.name] = tot.stageSum[st.stage] / n
				L[st.name+".count"] = n
			}
		}
		L["serve.rejected"] = tot.counters["serve_upload_rejected"]
		if n := tot.counters["fleet_hit"] + tot.counters["fleet_miss"]; n > 0 {
			L["serve.fleet_cache_hit_frac"] = tot.counters["fleet_hit"] / n
		}
		L["serve.selfcheck_mismatches"] = float64(tot.selfcheck)
		serveLayers(rep, o, c, sample)
	}
	return rep
}

// measureRound runs the closed-loop batches and this round's share of the
// fixed-rate step; the last round then judges the pooled fixed-rate step
// and climbs the rest of the ladder, one step at a time.
func (c serveConfig) measureRound(rep *report, tot *serveTotals, rd *serveRound, round, rounds int) error {
	for b := 0; b < c.batches; b++ {
		lists, err := rd.takeUploads(c.batch, false, 0)
		if err != nil {
			return err
		}
		settle()
		recs := rd.phase(lists, true)
		c.account(rep, tot, recs)
		var end time.Duration
		for _, r := range recs {
			if r.kind == opUpload {
				end = max(end, r.done)
			}
		}
		rep.wall = append(rep.wall, end.Seconds())
		rep.notes = append(rep.notes, fmt.Sprintf("batch round=%d %d uploads in %.3fs", round, c.batch, end.Seconds()))
	}
	share := (c.minSamples + rounds - 1) / rounds
	st, err := c.step(rep, tot, rd, c.ladder[0], share)
	if err != nil {
		return err
	}
	f := &tot.fixed
	f.rate = c.ladder[0]
	f.samples = append(f.samples, st.samples...)
	f.failed += st.failed
	tot.fixedLags = append(tot.fixedLags, st.lags...)
	f.backlogFirst += st.backlogFirst / float64(rounds)
	f.backlogLast += st.backlogLast / float64(rounds)
	if round < rounds-1 {
		return nil
	}
	sort.Float64s(f.samples)
	sort.Float64s(tot.fixedLags)
	f.lags = tot.fixedLags
	tot.verdicts = append(tot.verdicts, c.judge(rep, *f, "pooled", len(rd.cl.conns)))
	for _, rate := range c.ladder[1:] {
		st, err := c.step(rep, tot, rd, rate, c.stepUploads(rate))
		if err != nil {
			return err
		}
		tot.verdicts = append(tot.verdicts, c.judge(rep, st, fmt.Sprintf("round %d", round), len(rd.cl.conns)))
	}
	tot.maxRate = ladderMax(c.ladder, tot.verdicts)
	return nil
}

// step offers n uploads at rate (plus the fixed reads) open-loop.
func (c serveConfig) step(rep *report, tot *serveTotals, rd *serveRound, rate float64, n int) (stepStats, error) {
	dur := time.Duration(float64(n) / rate * float64(time.Second))
	lists, err := rd.takeUploads(n, true, rate)
	if err != nil {
		return stepStats{}, err
	}
	addReads(lists, c.readRate, dur)
	settle()
	recs := rd.phase(lists, false)
	c.account(rep, tot, recs)
	st := stepStats{rate: rate}
	var uploads []opRecord
	var lags []time.Duration
	for _, r := range recs {
		lags = append(lags, r.lag)
		if r.kind != opUpload {
			continue
		}
		uploads = append(uploads, r)
		if r.failed {
			st.failed++
		}
	}
	st.samples = sortedMS(latencies(uploads))
	st.lags = sortedMS(lags)
	st.backlogFirst, st.backlogLast = backlogQuarters(uploads, 0, dur)
	return st, nil
}

func (c serveConfig) judge(rep *report, st stepStats, scope string, conns int) stepVerdict {
	v, why := judgeStep(st, stepLimits{p99MS: c.p99LimitMS, lagMS: c.p99LimitMS / 4,
		conns: conns, minCount: c.minSamples})
	p50, _ := percentile(st.samples, 0.50)
	p90, _ := percentile(st.samples, 0.90)
	lag99, _ := percentile(st.lags, 0.99)
	rep.notes = append(rep.notes, fmt.Sprintf("step %s rate=%.0f/s n=%d p50=%.2fms p90=%.2fms %s: %s (lag p99 %.2f ms, backlog %.1f → %.1f)",
		scope, st.rate, len(st.samples), p50, p90, v, why, lag99, st.backlogFirst, st.backlogLast))
	return v
}

// account counts a phase's operations and keeps its read latencies and
// generator lateness.
func (c serveConfig) account(rep *report, tot *serveTotals, recs []opRecord) {
	for _, r := range recs {
		rep.attempted++
		if r.failed {
			rep.failed++
		}
		if r.kind == opRead {
			tot.reads = append(tot.reads, r.latency())
		}
		if r.fixed {
			tot.lags = append(tot.lags, r.lag)
		}
	}
}

func latencies(recs []opRecord) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.latency()
	}
	return out
}

// checkRound compares the served artifacts with the offline Study over the
// round's final corpus, and (durable rounds) runs the shadow-batch
// self-check. It closes the round: the server is shut down before the
// offline Study runs, so the two never hold the fleet at once.
func (c serveConfig) checkRound(rep *report, tot *serveTotals, rd *serveRound, round int) {
	var bad []string
	served := map[string]iotlan.Result{}
	for _, name := range readArtifacts {
		body, err := rd.cl.get("/v1/artifacts/" + name)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		var got struct {
			ID       string             `json:"id"`
			Rendered string             `json:"rendered"`
			Metrics  map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		served[name] = iotlan.Result{ID: got.ID, Rendered: got.Rendered, Metrics: got.Metrics}
	}
	if c.durable {
		n := rd.srv.SelfCheck()
		tot.selfcheck += n
		rep.check(fmt.Sprintf("selfcheck.r%d", round), n == 0, "%d mismatches", n)
	}
	rd.close()
	settle()

	hhs := make([]*inspector.Household, 0, len(rd.final))
	for _, i := range rd.final {
		hhs = append(hhs, rd.corpus.record(i))
	}
	sort.Slice(hhs, func(i, j int) bool { return hhs[i].ID < hhs[j].ID })
	study := iotlan.New(0, iotlan.WithHouseholds(len(hhs)))
	study.Inspector = &inspector.Dataset{Households: hhs}
	for name, got := range served {
		want, err := study.RunArtifact(name)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s offline: %v", name, err))
			continue
		}
		if checksum(got) != checksum(want) {
			bad = append(bad, name+" differs")
		}
	}
	sort.Strings(bad)
	rep.check(fmt.Sprintf("served_eq_offline.r%d", round), len(bad) == 0,
		"%d households, %s: %s", len(hhs), strings.Join(readArtifacts, "+"), strings.Join(bad, "; "))
}

// scrapeServer reads the server's /metrics: exact stage means come from the
// serve_stage_ms _sum/_count series, never from bucket interpolation.
func scrapeServer(tot *serveTotals, cl *client) error {
	body, err := cl.get("/metrics")
	if err != nil {
		return err
	}
	samples, _, err := obs.ParsePrometheus(string(body))
	if err != nil {
		return err
	}
	for _, s := range samples {
		name := strings.TrimPrefix(s.Name, "iotlan_")
		switch name {
		case "serve_stage_ms_sum":
			tot.stageSum[s.Labels["stage"]] += s.Value
		case "serve_stage_ms_count":
			tot.stageCount[s.Labels["stage"]] += s.Value
		case "serve_upload_rejected":
			tot.counters[name] += s.Value
		case "serve_fleet_cache":
			tot.counters["fleet_"+s.Labels["result"]] += s.Value
		}
	}
	if len(tot.stageCount) == 0 {
		return errors.New("/metrics has no serve_stage_ms series")
	}
	return nil
}
