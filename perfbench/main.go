// Command perfbench is iotlan's benchmark: one binary, four named
// workloads, every end-to-end metric printed by name with its unit, and a
// correctness verdict that fails the run when an output is wrong.
//
//	perfbench --workload lab-repro|lab-sweep|serve-ingest|serve-mixed
//	          --seed N --seconds S --trace 0|1
//	          [--cpuprofile FILE] [--memprofile FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 repeats the same
// work with spans around every public call and replays the workload's own
// inputs through the single layers, reporting the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The lines before it are the human-readable report: environment block,
// correctness verdicts, and every metric with its unit and sample count.
// README.md documents the workloads, the metrics and their mapping. Build
// and run it with run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(o options) *report
}

var workloads = []workload{
	{"lab-repro", func(o options) *report { return runLab(o, reproLab) }},
	{"lab-sweep", func(o options) *report { return runLab(o, sweepLab) }},
	{"serve-ingest", func(o options) *report { return runServe(o, ingestServe) }},
	{"serve-mixed", func(o options) *report { return runServe(o, mixedServe) }},
}

// options are one run's parameters.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spans   *tracer
	// scratch is a directory inside the working tree for files the run
	// writes (WAL, checkpoints); it is removed when the run ends.
	scratch string
}

// report is what a workload returns.
type report struct {
	setup     []float64 // seconds per set-up
	wall      []float64 // seconds per repetition of the workload's fixed job
	attempted int
	failed    int
	checks    []check
	// figures are further end-to-end figures printed for people (latency at
	// the fixed rate, the ladder's max rate), with their sample counts.
	figures []figure
	// notes are further human-readable lines (ladder step verdicts).
	notes []string
	// layer holds per-layer metrics, filled on traced runs only.
	layer map[string]float64
	// tracedWall and plainWall split a traced run's repetitions (wall) into
	// those timed with spans on and those with spans off.
	tracedWall, plainWall []float64
}

type check struct {
	name   string
	ok     bool
	detail string
}

type figure struct {
	name  string
	value float64
	unit  string
	count int
}

func (r *report) check(name string, ok bool, detail string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(detail, args...)})
}

func (r *report) figure(name string, value float64, unit string, count int) {
	r.figures = append(r.figures, figure{name, value, unit, count})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	scratch, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spans: newTracer(*trace == 1), scratch: scratch}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	before := sampleRuntime()
	start := time.Now()
	rep := w.run(o)
	total := time.Since(start)
	after := sampleRuntime()
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	res := resultOut{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricOut{}}
	if o.trace {
		rep.layer["runtime.cpu_s"] = after.cpu - before.cpu
		rep.layer["runtime.alloc_mb"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20)
		rep.layer["runtime.mallocs"] = float64(after.mem.Mallocs - before.mem.Mallocs)
		rep.layer["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
		rep.layer["runtime.gc_cpu_frac"] = after.mem.GCCPUFraction
		if len(rep.tracedWall) > 0 && len(rep.plainWall) > 0 {
			rep.layer["trace.overhead_frac"] = median(rep.tracedWall)/median(rep.plainWall) - 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{rep.layer[m.name], m.unit}
		}
	} else {
		res.Metrics["setup_s"] = metricOut{median(rep.setup), "s"}
		res.Metrics["wall_s"] = metricOut{median(rep.wall), "s"}
		res.Metrics["peak_rss_mb"] = metricOut{after.maxRSSMB, "MB"}
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d elapsed=%.2fs\n",
		w.name, *seed, *seconds, *trace, total.Seconds())
	env, _ := json.Marshal(environment())
	fmt.Fprintf(stdout, "env %s\n", env)
	for _, c := range rep.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "check %-28s %-4s %s\n", c.name, verdict, c.detail)
	}
	fmt.Fprintf(stdout, "metric %-34s %14.6f %-6s n=%d\n", "setup_s", median(rep.setup), "s", len(rep.setup))
	fmt.Fprintf(stdout, "metric %-34s %14.6f %-6s n=%d\n", "wall_s", median(rep.wall), "s", len(rep.wall))
	fmt.Fprintf(stdout, "metric %-34s %14.6f %-6s\n", "peak_rss_mb", after.maxRSSMB, "MB")
	for _, f := range rep.figures {
		fmt.Fprintf(stdout, "metric %-34s %14.6f %-6s n=%d\n", f.name, f.value, f.unit, f.count)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	failFrac := 0.0
	if rep.attempted > 0 {
		failFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "metric %-34s %14.6f %-6s n=%d\n", "fail_frac", failFrac, "ratio", rep.attempted)
	if o.trace {
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "layer  %-34s %14.6f %s\n", m.name, rep.layer[m.name], m.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is the benchmark process's own resource use at one point.
type runtimeSample struct {
	mem      runtime.MemStats
	cpu      float64 // user + system seconds
	maxRSSMB float64
}

func sampleRuntime() runtimeSample {
	var s runtimeSample
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		s.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s
}

// environment is the block every result carries: where and what was run.
func environment() map[string]any {
	env := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"dirty":      false,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["dirty"] = s.Value == "true"
			}
		}
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// tracer records span durations by name from the benchmark's own calls into
// each layer. Only the goroutine that runs the workload uses it.
type tracer struct {
	on    bool
	spans map[string][]float64 // seconds per recorded span
}

func newTracer(on bool) *tracer { return &tracer{on: on, spans: map[string][]float64{}} }

// timed runs fn, records its wall time under name when tracing is on, and
// returns it.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t.on {
		t.spans[name] = append(t.spans[name], d.Seconds())
	}
	return d
}

// settle collects garbage before a timed phase, so the phase does not pay
// for the previous one's (or the input generation's) garbage.
func settle() { runtime.GC() }
