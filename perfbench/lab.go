package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"iotlan"
	"iotlan/internal/device"
	"iotlan/internal/obs"
	"iotlan/internal/scan"
)

// labConfig sizes one simulated-lab workload.
type labConfig struct {
	name string
	// devices names a catalog subset; nil runs the full 93-device catalog.
	devices      []string
	idle         time.Duration
	interactions int
	households   int
	apps         int
	// repro runs every pipeline and all registry artifacts; otherwise the
	// pass is boot + idle + port scan only.
	repro     bool
	fullSweep bool
	// seed1Checksum is the output checksum seed 1 must reproduce.
	seed1Checksum string
}

const (
	// minPasses is the least number of pipeline passes in a run; more start
	// while the run's measured seconds are not used up. A traced run times
	// its even passes with spans on and its odd passes with spans off.
	minPasses = 2
	// Each pass takes setupSamples set-up samples. One sample constructs the
	// Study setupBatch times back to back and reports the mean: a single
	// construction takes about a tenth of a millisecond, too short to time
	// steadily on its own.
	setupSamples = 5
	setupBatch   = 400
)

// sweepDevices is lab-sweep's fixed catalog subset: voice assistants, a
// speaker, two cameras (one with telnet), a TV, a hub and a plug,
// so the full sweep meets every kind of open-port profile.
var sweepDevices = []string{
	"echo-1", "google-1", "homepod-1", "dlink-cam",
	"icsee-cam", "roku-tv", "hue-hub", "wemo-plug",
}

// reproLab runs 62 of the 93 catalog devices (two of every three) for
// iotrepro's 45 idle minutes. A full-catalog pass takes about 14 s, so a
// run would hold two and a slow stretch of the host would move their mean;
// a pass here takes 5–6 s, so a run's median is over five or more, and
// multicast fan-out still makes over 90% of the frame deliveries.
var reproLab = labConfig{
	name: "lab-repro", devices: catalogKeep(2, 3), idle: 45 * time.Minute, interactions: 30, households: 1000, apps: 20,
	repro: true, seed1Checksum: reproChecksumSeed1,
}

var sweepLab = labConfig{
	name: "lab-sweep", devices: sweepDevices, idle: 2 * time.Minute,
	fullSweep: true, seed1Checksum: sweepChecksumSeed1,
}

// Recorded output checksums of the default sizes at seed 1. A change to the
// simulator or the analyses that alters any output byte changes them.
const (
	reproChecksumSeed1 = "830dbf1a67df530f79541441875b5a9d79322047a4071519c4ac731a7ce4d90e"
	sweepChecksumSeed1 = "a68a752a601c4ad96b113c10190b014c6eca8fcc4504e1e91dd674462179e8d4"
)

// catalogKeep names the first keep of every of catalog devices, in catalog
// order, so the subset keeps the catalog's mix of device kinds.
func catalogKeep(keep, of int) []string {
	var names []string
	for i, p := range device.Catalog() {
		if i%of < keep {
			names = append(names, p.Name)
		}
	}
	return names
}

func (c labConfig) newStudy(seed int64, fullSweep bool) *iotlan.Study {
	profiles := device.Catalog()
	if c.devices != nil {
		profiles = device.Subset(c.devices...)
	}
	opts := []iotlan.Option{
		iotlan.WithLabProfiles(profiles),
		iotlan.WithIdleDuration(c.idle),
		iotlan.WithInteractions(c.interactions),
		iotlan.WithHouseholds(c.households),
		iotlan.WithApps(c.apps),
	}
	if fullSweep {
		opts = append(opts, iotlan.WithFullPortSweep())
	}
	return iotlan.New(seed, opts...)
}

// labPass is one pipeline pass.
type labPass struct {
	study    *iotlan.Study
	setup    []float64
	wall     time.Duration
	checksum string
	errs     []string
	// scanWall and scanProbes time the port scan: SYNs the scanner sent.
	scanWall   time.Duration
	scanProbes uint64
}

func (c labConfig) pass(o options) *labPass {
	p := &labPass{}
	for i := 0; i < setupSamples; i++ {
		start := time.Now()
		for j := 0; j < setupBatch; j++ {
			p.study = c.newStudy(o.seed, c.fullSweep)
		}
		p.setup = append(p.setup, time.Since(start).Seconds()/setupBatch)
	}
	s := p.study
	var results []iotlan.Result
	start := time.Now()
	func() {
		phase := func(name string, fn func()) time.Duration {
			return o.spans.timed("study."+name+"_s", fn)
		}
		phase("passive", s.RunPassive)
		reg := s.Lab.Telemetry().Registry
		synKey := obs.Key("stack_tcp_segments", "dir", "out", "kind", "syn")
		syn0 := reg.CounterValue(synKey)
		p.scanWall = phase("scans", s.RunScans)
		p.scanProbes = reg.CounterValue(synKey) - syn0
		if !c.repro {
			return
		}
		phase("vuln", s.RunVulnScans)
		phase("apps", s.RunApps)
		phase("inspector", s.RunInspector)
		phase("index", func() { s.PassiveIndex() })
		phase("graph", func() { s.PassiveGraph() })
		phase("identifiers", func() { s.ExtractedIdentifiers() })
		for _, name := range iotlan.ArtifactNames() {
			o.spans.timed("report."+name+"_s", func() {
				r, err := s.RunArtifact(name)
				if err != nil || r.ID == "" {
					p.errs = append(p.errs, fmt.Sprintf("artifact %s: no result (%v)", name, err))
				}
				results = append(results, r)
			})
		}
	}()
	p.wall = time.Since(start)
	if c.repro {
		p.checksum = checksumAll(results)
	} else {
		p.checksum = scanChecksum(s.Scans)
	}
	if drops := s.Lab.Telemetry().Registry.Total("lan_frames_dropped"); drops != 0 {
		p.errs = append(p.errs, fmt.Sprintf("lan dropped %d frames", drops))
	}
	return p
}

// scanChecksum hashes every device's scan verdicts in name order.
func scanChecksum(scans map[string]*scan.Result) string {
	names := make([]string, 0, len(scans))
	for n := range scans {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		r := scans[n]
		fmt.Fprintf(h, "%s tcp=%v udp=%v filtered=%v ip=%v\n", n, r.TCPOpen, r.UDPOpen, r.UDPOpenFiltered, r.IPProtos)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runLab runs pipeline passes until the measured seconds are used up (at
// least minPasses), then checks the outputs. A pass whose gate fails —
// an artifact error, a dropped frame, a checksum differing from the first
// pass or from the recorded one — counts as failed.
func runLab(o options, c labConfig) *report {
	rep := &report{layer: map[string]float64{}}
	want, recorded := c.seed1Checksum, o.seed == 1 && c.seed1Checksum != ""
	var passes []*labPass
	var errs []string
	stable, matches := true, true
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < o.seconds {
		if len(passes) > 0 {
			passes[len(passes)-1].study = nil // keep one simulated lab in memory
		}
		settle()
		o.spans.on = o.trace && len(passes)%2 == 0
		r0 := sampleRuntime()
		p := c.pass(o)
		r1 := sampleRuntime()
		passes = append(passes, p)
		rep.setup = append(rep.setup, p.setup...)
		rep.wall = append(rep.wall, p.wall.Seconds())
		if o.spans.on {
			rep.tracedWall = append(rep.tracedWall, p.wall.Seconds())
		} else {
			rep.plainWall = append(rep.plainWall, p.wall.Seconds())
		}
		rep.notes = append(rep.notes, fmt.Sprintf("pass %d wall=%.3fs cpu=%.3fs gc=%d",
			len(passes)-1, p.wall.Seconds(), r1.cpu-r0.cpu, r1.mem.NumGC-r0.mem.NumGC))
		errs = append(errs, p.errs...)
		stable = stable && p.checksum == passes[0].checksum
		matches = matches && (!recorded || p.checksum == want)
		rep.attempted++
		if len(p.errs) > 0 || p.checksum != passes[0].checksum || (recorded && p.checksum != want) {
			rep.failed++
		}
	}
	last := passes[len(passes)-1]
	if c.repro {
		rep.check("artifacts_render", len(errs) == 0, "%d artifacts × %d passes %v", len(iotlan.ArtifactNames()), len(passes), errs)
	} else {
		rep.check("lan_no_drops", len(errs) == 0, "%v", errs)
	}
	rep.check("checksum_stable", stable, "%d passes, %s", len(passes), passes[0].checksum)
	if recorded {
		rep.check("checksum_recorded", matches, "seed %d, recorded %s", o.seed, short(want))
	}
	if !c.repro {
		// The full sweep must find every port the fast list finds (and
		// may find more: ephemeral high ports only a full sweep reaches).
		ref := c.newStudy(o.seed, false)
		ref.RunScans()
		missing := sweepMissing(last.study.Scans, ref.Scans)
		rep.check("sweep_superset", len(missing) == 0 && len(ref.Scans) == len(c.devices),
			"%d devices, fast-list ports missing from full sweep: %v", len(ref.Scans), missing)
	}

	if o.trace {
		labLayers(rep, o, last)
	}
	return rep
}

// sweepMissing lists, per device, fast-list open ports the full sweep did
// not report.
func sweepMissing(full, fast map[string]*scan.Result) []string {
	var out []string
	for name, f := range fast {
		g := full[name]
		if g == nil {
			out = append(out, name+": no full-sweep result")
			continue
		}
		if m := notIn(f.TCPOpen, g.TCPOpen); len(m) > 0 {
			out = append(out, fmt.Sprintf("%s tcp %v", name, m))
		}
		if m := notIn(f.UDPOpen, g.UDPOpen); len(m) > 0 {
			out = append(out, fmt.Sprintf("%s udp %v", name, m))
		}
	}
	sort.Strings(out)
	return out
}

func notIn(sub, super []uint16) []uint16 {
	have := make(map[uint16]bool, len(super))
	for _, p := range super {
		have[p] = true
	}
	var out []uint16
	for _, p := range sub {
		if !have[p] {
			out = append(out, p)
		}
	}
	return out
}

func short(sum string) string {
	if len(sum) > 16 {
		return sum[:16]
	}
	return sum
}
