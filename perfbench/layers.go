package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iotlan/internal/analysis"
	"iotlan/internal/dnsmsg"
	"iotlan/internal/inspector"
	"iotlan/internal/layers"
	"iotlan/internal/pcap"
	"iotlan/internal/serve/store"
	"iotlan/internal/ssdp"
)

// Traced runs replay the workload's own inputs through single layers — the
// lab's capture through the decoders, the serving workload's bodies through
// the wire codec, the fold and the WAL — and read the program's counters.
// Replays are capped so a traced run stays within the run budget.
const (
	maxReplayPerClass = 20000
	maxReplayRecords  = 200000
	maxWALReplay      = 300
)

// sink holds each replayed call's result, so the compiler cannot drop the
// calls being timed.
var sink any

// allocsAndNS runs fn n times and returns mean ns and heap allocations per
// call.
func allocsAndNS(n int, fn func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// frameClass buckets a decoded frame for the per-class decode metrics.
func frameClass(p *layers.Packet) string {
	switch {
	case p.HasUDP && (p.UDP.SrcPort == 5353 || p.UDP.DstPort == 5353):
		return "mdns"
	case p.HasUDP && (p.UDP.SrcPort == 1900 || p.UDP.DstPort == 1900):
		return "ssdp"
	case p.HasARP:
		return "arp"
	case p.HasTCP:
		return "tcp"
	case p.HasUDP:
		return "udp"
	}
	return "other"
}

// counterSnapshot reads every counter of a lab registry snapshot.
func counterSnapshot(snapshot []byte) map[string]uint64 {
	var d struct {
		Counters map[string]uint64 `json:"counters"`
	}
	_ = json.Unmarshal(snapshot, &d) // the snapshot is the registry's own JSON
	return d.Counters
}

func sumSeries(counters map[string]uint64, name string, labels ...string) float64 {
	var sum uint64
	for k, v := range counters {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(k, l)
		}
		if match {
			sum += v
		}
	}
	return float64(sum)
}

// labLayers fills the per-layer metrics of a lab run from the spans, the
// last pass's telemetry registry and replays of its capture.
func labLayers(rep *report, o options, last *labPass) {
	L := rep.layer
	for name, vs := range o.spans.spans {
		// Every traced pass records each span once; report the median.
		L[name] = median(vs)
	}
	s := last.study
	wall := last.wall.Seconds()
	counters := counterSnapshot(s.Lab.Telemetry().Registry.Snapshot())
	events := sumSeries(counters, "sim_events_processed")
	L["sim.events"], L["sim.events_per_s"] = events, events/wall
	multicast := sumSeries(counters, "lan_frames_total", "cast=multicast")
	unicast := sumSeries(counters, "lan_frames_total", "cast=unicast")
	deliveries := sumSeries(counters, "lan_frames_delivered")
	L["lan.frames_multicast"], L["lan.frames_unicast"] = multicast, unicast
	L["lan.deliveries"], L["lan.drops"] = deliveries, sumSeries(counters, "lan_frames_dropped")
	// A unicast frame reaches one host, so every other delivery is
	// multicast fan-out (derived: the LAN counts deliveries, not casts).
	fanout := 0.0
	if multicast > 0 {
		fanout = (deliveries - unicast) / multicast
		L["lan.fanout"] = fanout
	}
	if deliveries > 0 {
		L["lan.multicast_delivery_frac"] = (deliveries - unicast) / deliveries
	}
	L["stack.tcp_segments"] = sumSeries(counters, "stack_tcp_segments", "dir=out")
	L["stack.tcp_handshakes"] = sumSeries(counters, "stack_tcp_handshakes")
	L["stack.tcp_retransmits"] = sumSeries(counters, "stack_tcp_retransmits")
	L["stack.arp_wait_dropped"] = sumSeries(counters, "stack_arp_wait_dropped")
	if last.scanWall > 0 {
		L["scan.probes_per_s"] = float64(last.scanProbes) / last.scanWall.Seconds()
	}

	// Classify the whole capture once, estimating each class's deliveries
	// (a group-addressed frame reaches fanout hosts, a unicast one host),
	// then replay an even sample of at most maxReplayPerClass frames of
	// each class.
	records := s.Lab.Capture.All
	classes := make([]string, len(records))
	count := map[string]int{}
	delivered := map[string]float64{}
	var mdnsAll, mdnsQueries float64
	for i, r := range records {
		p := layers.Decode(r.Data)
		classes[i] = frameClass(p)
		weight := 1.0
		if len(r.Data) > 0 && r.Data[0]&1 == 1 {
			weight = fanout
		}
		count[classes[i]]++
		delivered[classes[i]] += weight
		if classes[i] == "mdns" && len(p.AppPayload) > 2 {
			mdnsAll += weight
			if p.AppPayload[2]&0x80 == 0 {
				mdnsQueries += weight
			}
		}
	}
	byClass := map[string][][]byte{}
	seen := map[string]int{}
	var payloads struct{ mdns, ssdp [][]byte }
	for i, r := range records {
		c := classes[i]
		seen[c]++
		if stride := (count[c] + maxReplayPerClass - 1) / maxReplayPerClass; seen[c]%stride != 0 {
			continue
		}
		byClass[c] = append(byClass[c], r.Data)
		switch c {
		case "mdns":
			payloads.mdns = append(payloads.mdns, layers.Decode(r.Data).AppPayload)
		case "ssdp":
			payloads.ssdp = append(payloads.ssdp, layers.Decode(r.Data).AppPayload)
		}
	}
	if mdnsAll > 0 {
		L["mdns.query_frac"] = mdnsQueries / mdnsAll
	}
	estNS := 0.0
	for _, class := range frameClasses {
		frames := byClass[class]
		ns, allocs := allocsAndNS(len(frames), func(i int) { sink = layers.Decode(frames[i]) })
		var pkt layers.Packet
		intoNS, _ := allocsAndNS(len(frames), func(i int) { pkt.DecodeInto(frames[i]) })
		L["layers.decode_ns."+class], L["layers.decode_allocs."+class] = ns, allocs
		L["layers.decode_into_ns."+class] = intoNS
		estNS += ns * delivered[class]
	}
	// An estimate: per-frame replay cost × estimated deliveries, against the
	// pass's wall time. Hosts decode every frame they receive once.
	L["layers.rx_decode_est_wall_frac"] = estNS / 1e9 / wall
	L["dnsmsg.unmarshal_ns"], L["dnsmsg.unmarshal_allocs"] = allocsAndNS(len(payloads.mdns), func(i int) {
		sink, _ = dnsmsg.Unmarshal(payloads.mdns[i])
	})
	L["ssdp.parse_ns"], L["ssdp.parse_allocs"] = allocsAndNS(len(payloads.ssdp), func(i int) {
		sink, _ = ssdp.Parse(payloads.ssdp[i])
	})

	recs := append([]pcap.Record(nil), records[:min(len(records), maxReplayRecords)]...)
	var size countingWriter
	start := time.Now()
	if err := pcap.WriteFile(&size, recs); err == nil {
		L["pcap.write_mb_per_s"] = float64(size) / (1 << 20) / time.Since(start).Seconds()
	}
	if len(recs) > 0 {
		start = time.Now()
		sink = pcap.NewIndex(recs, 1)
		L["pcap.index_ns_per_record"] = float64(time.Since(start).Nanoseconds()) / float64(len(recs))
	}
	sink = nil
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// serveLayers replays a sample of the workload's own households through the
// wire decoder, the content hash, the per-household partial and (durable
// workloads) the WAL.
func serveLayers(rep *report, o options, c serveConfig, hhs []*inspector.Household) {
	L := rep.layer
	bodies := make([][]byte, len(hhs))
	for i, hh := range hhs {
		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, []*inspector.Household{hh}); err != nil {
			rep.check("replay_encode", false, "%v", err)
			return
		}
		bodies[i] = buf.Bytes()
	}
	ns, allocs := allocsAndNS(len(bodies), func(i int) {
		sink, _ = inspector.NewWireDecoder(bytes.NewReader(bodies[i])).Next()
	})
	L["inspector.wire_decode_us"], L["inspector.wire_decode_allocs"] = ns/1e3, allocs
	ns, _ = allocsAndNS(len(hhs), func(i int) { sink = hhs[i].ContentHash() })
	L["inspector.content_hash_us"] = ns / 1e3
	ns, _ = allocsAndNS(len(hhs), func(i int) { sink = analysis.HouseholdPartialOf(hhs[i]) })
	L["analysis.household_partial_us"] = ns / 1e3
	sink = nil
	if !c.durable {
		return
	}
	log, err := store.OpenLog(filepath.Join(o.scratch, "wal-replay"), store.SyncGroup)
	if err != nil {
		rep.check("wal_replay", false, "%v", err)
		return
	}
	n := min(len(hhs), maxWALReplay)
	var bytesOut int
	var appendErr error
	ns, _ = allocsAndNS(n, func(i int) {
		p, err := json.Marshal(hhs[i].Wire())
		if err == nil {
			err = log.Append(p)
		}
		if err != nil && appendErr == nil {
			appendErr = err
		}
		bytesOut += len(p) + 8 // framing: uint32 length + uint32 CRC32C

	})
	if err := log.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		rep.check("wal_replay", false, "%v", appendErr)
		return
	}
	L["store.wal_append_us"] = ns / 1e3
	if n > 0 {
		L["store.wal_bytes_per_upload"] = float64(bytesOut) / float64(n)
	}
}
