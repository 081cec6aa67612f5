package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// Tiny sizes of the four workloads: the same code paths, seconds of work.
var (
	tinyRepro = labConfig{
		// RunApps seeds pairing MACs from the first eight devices.
		name: "lab-repro", devices: []string{"echo-1", "google-1", "homepod-1", "hue-hub",
			"roku-tv", "wemo-plug", "tplink-plug", "tuya-plug-1"},
		idle: 30 * time.Second, interactions: 2, households: 30, apps: 2,
		repro: true,
	}
	tinySweep = labConfig{
		name: "lab-sweep", devices: []string{"wemo-plug", "icsee-cam"}, idle: 30 * time.Second,
		fullSweep: true,
	}
	tinyIngest = serveConfig{
		name: "serve-ingest", warmup: 20, batch: 30, batches: 1,
		ladder: []float64{200, 400}, stepMin: 100 * time.Millisecond, minSamples: 20,
		p99LimitMS: 20, roundSeconds: 1,
	}
	tinyMixed = serveConfig{
		name: "serve-mixed", durable: true, households: 20, warmup: 20, batch: 20, batches: 1,
		ladder: []float64{100, 200}, stepMin: 100 * time.Millisecond, minSamples: 20,
		p99LimitMS: 50, readRate: 20, checkpointEvery: 25, roundSeconds: 1,
	}
)

func tinyOptions(t *testing.T) options {
	return options{seed: 7, seconds: time.Second, trace: true, spans: newTracer(true), scratch: t.TempDir()}
}

func checkSmoke(t *testing.T, rep *report, nonzero ...string) {
	t.Helper()
	for _, c := range rep.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	if !rep.correct() || rep.attempted < 1 || rep.failed != 0 || len(rep.wall) == 0 || len(rep.setup) == 0 {
		t.Fatalf("report: correct=%v attempted=%d failed=%d walls=%d setups=%d",
			rep.correct(), rep.attempted, rep.failed, len(rep.wall), len(rep.setup))
	}
	for _, name := range nonzero {
		if rep.layer[name] == 0 {
			t.Errorf("layer metric %s is 0", name)
		}
	}
}

func TestSmokeLabRepro(t *testing.T) {
	rep := runLab(tinyOptions(t), tinyRepro)
	checkSmoke(t, rep, "study.passive_s", "report.table2_s", "sim.events", "lan.fanout",
		"layers.decode_ns.mdns", "dnsmsg.unmarshal_ns", "pcap.index_ns_per_record")
}

func TestSmokeLabSweep(t *testing.T) {
	rep := runLab(tinyOptions(t), tinySweep)
	checkSmoke(t, rep, "study.scans_s", "scan.probes_per_s", "lan.frames_unicast", "layers.decode_ns.tcp")
	if rep.layer["stack.tcp_segments"] < 2*65535 {
		t.Errorf("full sweep sent %v segments, want at least one SYN per port per device", rep.layer["stack.tcp_segments"])
	}
}

func TestSmokeServeIngest(t *testing.T) {
	rep := runServe(tinyOptions(t), tinyIngest)
	checkSmoke(t, rep, "serve.inspector_decode_ms", "serve.analysis_ms", "inspector.wire_decode_us",
		"analysis.household_partial_us", "client.upload_count")
	for _, name := range []string{"store.wal_append_us", "serve.wal_append_ms", "serve.artifact_build_ms"} {
		if rep.layer[name] != 0 {
			t.Errorf("%s = %v on an in-memory ingest-only workload", name, rep.layer[name])
		}
	}
}

func TestSmokeServeMixed(t *testing.T) {
	rep := runServe(tinyOptions(t), tinyMixed)
	checkSmoke(t, rep, "serve.wal_append_ms", "serve.artifact_build_ms", "store.wal_append_us",
		"store.wal_bytes_per_upload", "client.read_count")
}

// TestFinalCorpusIsAcknowledgedUploads: the offline check's corpus holds,
// per household, the last upload the server acknowledged; a refused upload
// counts as failed but is not assumed applied.
func TestFinalCorpusIsAcknowledgedUploads(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) == "refuse" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	rd := &serveRound{cl: newClient(ts.URL), final: map[string]int{}}
	defer rd.cl.close()
	upload := func(hh string, idx int, body string) op {
		return op{kind: opUpload, path: "/", body: []byte(body), hh: hh, idx: idx}
	}
	lists := make([][]op, len(rd.cl.conns))
	lists[0] = []op{upload("a", 0, "ok"), upload("b", 1, "refuse"), upload("a", 2, "refuse"), upload("c", 3, "ok")}
	recs := rd.phase(lists, true)
	if got := countFailed(recs); got != 2 {
		t.Errorf("%d failed uploads, want 2", got)
	}
	want := map[string]int{"a": 0, "c": 3}
	if len(rd.final) != len(want) || rd.final["a"] != 0 || rd.final["c"] != 3 {
		t.Errorf("final corpus %v, want %v", rd.final, want)
	}
}

// TestRunOutput drives the command line end to end on a tiny run: the last
// line is the result object with exactly the end-to-end metrics.
func TestRunOutput(t *testing.T) {
	saved := ingestServe
	ingestServe = tinyIngest
	defer func() { ingestServe = saved }()
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "serve-ingest", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, m := range endToEnd {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("metric %s = %+v", m.name, got)
		}
	}
	if !strings.Contains(out.String(), "env {") {
		t.Error("no environment block")
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
}
