package main

import "iotlan"

// metricDef names one reported metric. The lists below are the contract
// with BENCHMARK.json: a --trace 0 run reports exactly endToEnd, a
// --trace 1 run exactly perLayer (TestBenchmarkJSONMatches keeps them in
// step).
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are defined on every workload (see README.md for what
// wall_s times on each).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// frameClasses are the capture replay classes of the layers metrics.
var frameClasses = []string{"mdns", "ssdp", "arp", "tcp", "udp", "other"}

// serveStages maps the server's serve_stage_ms{stage} series to metric
// names (exact _sum/_count means, never bucket quantiles).
var serveStages = []struct{ stage, name string }{
	{"queue.wait", "serve.queue_wait_ms"},
	{"body.read", "serve.body_read_ms"},
	{"inspector.decode", "serve.inspector_decode_ms"},
	{"analysis", "serve.analysis_ms"},
	{"cache.lookup", "serve.cache_lookup_ms"},
	{"wal.append", "serve.wal_append_ms"},
	{"artifact.build", "serve.artifact_build_ms"},
}

var studyPhases = []string{"passive", "scans", "vuln", "apps", "inspector", "index", "graph", "identifiers"}

// perLayer lists every traced-run metric. Workloads that do not exercise a
// layer report it as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) { ms = append(ms, metricDef{name, unit, better}) }
	for _, p := range studyPhases {
		add("study."+p+"_s", "s", "lower")
	}
	for _, a := range iotlan.ArtifactNames() {
		add("report."+a+"_s", "s", "lower")
	}
	add("sim.events", "count", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("lan.frames_multicast", "count", "lower")
	add("lan.frames_unicast", "count", "lower")
	add("lan.deliveries", "count", "lower")
	add("lan.drops", "count", "lower")
	add("lan.fanout", "ratio", "lower")
	add("lan.multicast_delivery_frac", "ratio", "lower")
	add("stack.tcp_segments", "count", "lower")
	add("stack.tcp_handshakes", "count", "lower")
	add("stack.tcp_retransmits", "count", "lower")
	add("stack.arp_wait_dropped", "count", "lower")
	for _, c := range frameClasses {
		add("layers.decode_ns."+c, "ns", "lower")
		add("layers.decode_allocs."+c, "count", "lower")
		add("layers.decode_into_ns."+c, "ns", "lower")
	}
	add("layers.rx_decode_est_wall_frac", "ratio", "lower")
	add("dnsmsg.unmarshal_ns", "ns", "lower")
	add("dnsmsg.unmarshal_allocs", "count", "lower")
	add("mdns.query_frac", "ratio", "higher")
	add("ssdp.parse_ns", "ns", "lower")
	add("ssdp.parse_allocs", "count", "lower")
	add("pcap.write_mb_per_s", "MB/s", "higher")
	add("pcap.index_ns_per_record", "ns", "lower")
	add("scan.probes_per_s", "1/s", "higher")
	for _, st := range serveStages {
		add(st.name, "ms", "lower")
		add(st.name+".count", "count", "higher")
	}
	add("serve.rejected", "count", "lower")
	add("serve.fleet_cache_hit_frac", "ratio", "higher")
	add("serve.selfcheck_mismatches", "count", "lower")
	add("inspector.wire_decode_us", "us", "lower")
	add("inspector.wire_decode_allocs", "count", "lower")
	add("inspector.content_hash_us", "us", "lower")
	add("analysis.household_partial_us", "us", "lower")
	add("store.wal_append_us", "us", "lower")
	add("store.wal_bytes_per_upload", "B", "lower")
	add("client.upload_p50_ms", "ms", "lower")
	add("client.upload_p99_ms", "ms", "lower")
	add("client.upload_count", "count", "higher")
	add("client.upload_max_rate", "1/s", "higher")
	add("client.read_p50_ms", "ms", "lower")
	add("client.read_p90_ms", "ms", "lower")
	add("client.read_count", "count", "higher")
	add("client.gen_lag_p99_ms", "ms", "lower")
	add("client.gen_lag_max_ms", "ms", "lower")
	add("client.fail_frac", "ratio", "lower")
	add("runtime.cpu_s", "s", "lower")
	add("runtime.alloc_mb", "MB", "lower")
	add("runtime.mallocs", "count", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_cpu_frac", "ratio", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return ms
}
