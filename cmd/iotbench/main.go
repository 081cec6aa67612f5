// Command iotbench times the simulator and writes machine-readable
// benchmark records.
//
// The default mode times the standard idle run (45 simulated minutes of the
// full 93-device lab); make bench uses it to produce BENCH_1.json so
// throughput regressions show up in review diffs.
//
// -artifacts instead benchmarks the analysis engine: the Inspector
// generation + decode-once index + artifact fan-out stage, run once with
// one worker and once with one worker per CPU, over identical pipelines.
// The two runs' results are checksummed — the record's "identical" field
// asserts the engine's byte-identical-output contract — and the speedup is
// written to BENCH_2.json. make bench2 drives this mode.
//
// BENCH_4.json (serving throughput and the served-vs-offline determinism
// gate) is written by the companion load generator, cmd/iotload.
//
// Usage:
//
//	iotbench [-seed N] [-idle 45m] [-out BENCH_1.json]
//	iotbench -artifacts [-seed N] [-idle 45m] [-interactions 120]
//	         [-households 3860] [-out BENCH_2.json]
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"iotlan"
	"iotlan/internal/sim"
	"iotlan/internal/testbed"
)

// record is the BENCH_1.json schema. Wall-clock fields vary run to run; the
// events/frames counts are seed-deterministic and double as a sanity check
// that two benchmark runs exercised identical workloads.
type record struct {
	Seed            int64   `json:"seed"`
	IdleVirtual     string  `json:"idle_virtual"`
	Devices         int     `json:"devices"`
	WallMS          float64 `json:"wall_ms"`
	VirtualS        float64 `json:"virtual_s"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	FramesDelivered uint64  `json:"frames_delivered"`
	FramesPerSec    float64 `json:"frames_per_sec"`
}

// artifactRecord is the BENCH_2.json schema: the artifact+Inspector stage
// timed sequentially (workers=1) and in parallel (one worker per CPU), with
// a result checksum proving both produced identical bytes.
type artifactRecord struct {
	Seed             int64   `json:"seed"`
	Cores            int     `json:"cores"`
	IdleVirtual      string  `json:"idle_virtual"`
	Interactions     int     `json:"interactions"`
	Households       int     `json:"households"`
	Artifacts        int     `json:"artifacts"`
	WallSequentialMS float64 `json:"wall_sequential_ms"`
	WallParallelMS   float64 `json:"wall_parallel_ms"`
	Speedup          float64 `json:"speedup"`
	Identical        bool    `json:"identical"`
	ChecksumSHA256   string  `json:"checksum_sha256"`
}

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	idle := flag.Duration("idle", 45*time.Minute, "idle window to simulate")
	interactions := flag.Int("interactions", 120, "scripted interactions (-artifacts mode)")
	households := flag.Int("households", 3860, "crowdsourced households (-artifacts mode)")
	artifacts := flag.Bool("artifacts", false, "benchmark the artifact+Inspector analysis stage instead of the idle run")
	out := flag.String("out", "", "output file (\"-\" for stdout; default BENCH_1.json, BENCH_2.json with -artifacts)")
	flag.Parse()
	if *out == "" {
		*out = "BENCH_1.json"
		if *artifacts {
			*out = "BENCH_2.json"
		}
	}

	if *artifacts {
		benchArtifacts(*seed, *idle, *interactions, *households, *out)
		return
	}

	lab := testbed.New(*seed)
	lab.Start()
	start := time.Now()
	lab.RunIdle(*idle)
	wall := time.Since(start)

	reg := lab.Telemetry().Registry
	rec := record{
		Seed:            *seed,
		IdleVirtual:     idle.String(),
		Devices:         len(lab.Devices),
		WallMS:          float64(wall) / float64(time.Millisecond),
		VirtualS:        lab.Sched.Now().Sub(sim.Epoch).Seconds(),
		Events:          reg.Total("sim_events_processed"),
		FramesDelivered: reg.CounterValue("lan_frames_delivered"),
	}
	if s := wall.Seconds(); s > 0 {
		rec.EventsPerSec = float64(rec.Events) / s
		rec.FramesPerSec = float64(rec.FramesDelivered) / s
	}
	writeJSON(rec, *out)
	fmt.Printf("bench: %d events in %.0f ms (%.0f events/sec, %.0f frames/sec) → %s\n",
		rec.Events, rec.WallMS, rec.EventsPerSec, rec.FramesPerSec, *out)
}

// benchArtifacts times Everything()'s analysis stage at workers=1 and
// workers=NumCPU. The virtual-time pipelines (passive capture, scans, vuln
// audit, apps) are sequential by design and shared by both variants, so
// they run untimed; the timed region is Inspector generation, the
// decode-once index build, identifier extraction, and the artifact fan-out.
func benchArtifacts(seed int64, idle time.Duration, interactions, households int, out string) {
	run := func(workers int) (time.Duration, string) {
		s := iotlan.New(seed,
			iotlan.WithIdleDuration(idle),
			iotlan.WithInteractions(interactions),
			iotlan.WithHouseholds(households),
			iotlan.WithWorkers(workers),
		)
		s.RunPassive()
		s.RunScans()
		s.RunVulnScans()
		s.RunApps()
		start := time.Now()
		results := s.Everything()
		wall := time.Since(start)
		return wall, checksum(results)
	}

	cores := runtime.NumCPU()
	seqWall, seqSum := run(1)
	parWall, parSum := run(cores)

	rec := artifactRecord{
		Seed:             seed,
		Cores:            cores,
		IdleVirtual:      idle.String(),
		Interactions:     interactions,
		Households:       households,
		Artifacts:        len(iotlan.Artifacts()),
		WallSequentialMS: float64(seqWall) / float64(time.Millisecond),
		WallParallelMS:   float64(parWall) / float64(time.Millisecond),
		Identical:        seqSum == parSum,
		ChecksumSHA256:   seqSum,
	}
	if parWall > 0 {
		rec.Speedup = float64(seqWall) / float64(parWall)
	}
	writeJSON(rec, out)
	fmt.Printf("bench2: %d artifacts on %d core(s): sequential %.0f ms, parallel %.0f ms (%.2fx, identical=%v) → %s\n",
		rec.Artifacts, cores, rec.WallSequentialMS, rec.WallParallelMS, rec.Speedup, rec.Identical, out)
	if !rec.Identical {
		fmt.Fprintln(os.Stderr, "bench2: parallel output diverged from sequential")
		os.Exit(1)
	}
}

// checksum hashes every result's ID, rendition, and metrics (sorted) so two
// runs can be compared byte-for-byte.
func checksum(results []iotlan.Result) string {
	h := sha256.New()
	for _, r := range results {
		io.WriteString(h, r.ID)
		io.WriteString(h, "\x00")
		io.WriteString(h, r.Rendered)
		io.WriteString(h, "\x00")
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%v\n", k, r.Metrics[k])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeJSON(v interface{}, out string) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
}
