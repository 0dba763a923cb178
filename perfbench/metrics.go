package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
// BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delta_p50_ms", "ms"},
	{"delta_p90_ms", "ms"},
	{"resolve_s", "s"},
	{"round_p50_ms", "ms"},
	{"hits", "count"},
	{"crowd_cost_usd", "usd"},
	{"crowd_makespan_s", "s"},
	{"f1", "ratio"},
	{"peak_rss_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"read_rps", "1/s"},
}

// selfSpans are the span names whose self time a traced run reports as
// self.<name>.ms.
var selfSpans = []string{
	"round", "append", "delta", "resolve",
	"prune", "route", "generate", "execute", "aggregate", "store.log",
	"read", "http.append", "http.resolve", "http.poll", "http.matches",
	"handler.append", "handler.resolve", "handler.poll", "handler.matches",
}

// storeEvents are the store event kinds the metered store splits its
// log latencies by; any other kind counts only toward the totals.
var storeEvents = []string{"meta", "append", "prune", "commit"}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer the workload bypasses reports 0. BENCHMARK.json declares the
// same names and units.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"prune.ms", "ms"},
		{"prune.new_candidates", "count"},
		{"simjoin.postings_bytes", "bytes"},
		{"record.tokenize_ms", "ms"},
		{"route.ms", "ms"},
		{"route.machine_pairs", "count"},
		{"generate.ms", "ms"},
		{"generate.pairs_per_hit", "ratio"},
		{"hitgen.twotiered_ms", "ms"},
		{"hitgen.twotiered_hits", "count"},
		{"hitgen.random_hits", "count"},
		{"execute.ms", "ms"},
		{"crowd.posted_hits", "count"},
		{"crowd.assignments", "count"},
		{"crowd.retracted_hits", "count"},
		{"transitivity.deduced_pairs", "count"},
		{"aggregate.ms", "ms"},
		{"aggregate.judged_pairs", "count"},
		{"aggregate.us_per_judged_pair", "us"},
		{"engine.other_ms", "ms"},
		{"store.log_calls", "count"},
		{"store.log_p50_us", "us"},
		{"store.log_p99_us", "us"},
	}
	for _, ev := range storeEvents {
		defs = append(defs,
			metricDef{"store." + ev + ".log_calls", "count"},
			metricDef{"store." + ev + ".log_p50_us", "us"},
			metricDef{"store." + ev + ".log_p99_us", "us"})
	}
	defs = append(defs, []metricDef{
		{"store.wal_bytes", "bytes"},
		{"store.snapshot_bytes", "bytes"},
		{"store.bytes_per_delta", "bytes"},
		{"store.data_dir_bytes", "bytes"},
		{"store.recover_ms", "ms"},
		{"service.matches_handler_p50_ms", "ms"},
		{"service.matches_handler_p99_ms", "ms"},
		{"service.read_queue_ms", "ms"},
		{"service.mixed_read_p50_ms", "ms"},
		{"service.mixed_read_p99_ms", "ms"},
		{"service.matches_bytes", "bytes"},
		{"service.polls_per_round", "count"},
		{"service.resolve_handler_ms", "ms"},
		{"loadgen.lag_p99_ms", "ms"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
	}...)
	for _, s := range selfSpans {
		defs = append(defs, metricDef{"self." + s + ".ms", "ms"})
	}
	return append(defs,
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"})
}()
