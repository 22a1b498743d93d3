package main

// metricDef names one reported metric. The two lists must match
// BENCHMARK.json (a test keeps them equal): every untraced run prints every
// endToEnd metric, every traced run every perLayer metric.
type metricDef struct {
	Name, Unit, Better string
}

// The tail percentile is p75, not p90: an extract-cold pass takes about half
// a second, so a run of the chosen length holds about fifty passes, and p90
// would sit on fewer than ten samples.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p75", "ms", "lower"},
	{"extract_ms_p50", "ms", "lower"},
	{"extract_ms_p75", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// Per-layer timings are p50 over the traced replay's operations of each
// operation's summed spans; a layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	{"graph.parse_ms", "ms", "lower"},
	{"graph.parse_delta_ms", "ms", "lower"},
	{"graph.coalesced_frac", "1", "higher"},
	{"graph.self_ms", "ms", "lower"},
	{"compile.compile_ms", "ms", "lower"},
	{"compile.apply_ms", "ms", "lower"},
	{"compile.apply_burst_ms", "ms", "lower"},
	{"compile.load_ms", "ms", "lower"},
	{"compile.incremental_frac", "1", "higher"},
	{"compile.shard_faults", "count", "lower"},
	{"compile.tmp_mb_per_op", "MB", "lower"},
	{"compile.self_ms", "ms", "lower"},
	{"perfect.stage1_ms", "ms", "lower"},
	{"perfect.types", "count", "lower"},
	{"perfect.self_ms", "ms", "lower"},
	{"cluster.stage2_ms", "ms", "lower"},
	{"cluster.self_ms", "ms", "lower"},
	{"recast.stage3_ms", "ms", "lower"},
	{"recast.self_ms", "ms", "lower"},
	{"core.extract_self_ms", "ms", "lower"},
	{"core.stage1_warm_frac", "1", "higher"},
	{"core.stage2_warm_frac", "1", "higher"},
	{"core.stage3_warm_frac", "1", "higher"},
	{"core.fastpath_frac", "1", "higher"},
	{"core.dirty_types", "count", "lower"},
	{"core.dirty_objects", "count", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.sync_ms", "ms", "lower"},
	{"wal.write_bytes_per_delta", "B", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"wal.records_replayed", "count", "lower"},
	{"wal.self_ms", "ms", "lower"},
	{"httpapi.overhead_ms", "ms", "lower"},
	{"httpapi.cache_hit_frac", "1", "higher"},
	{"httpapi.batch_size_p50", "count", "higher"},
	{"httpapi.mutate_ms_p50", "ms", "lower"},
	{"httpapi.mutate_ms_p75", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cpu_frac", "1", "lower"},
	{"bench.self_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// layerTimes fills the span-derived per-layer metrics from a traced replay.
// Metrics whose span never occurs stay 0: the workload leaves that layer
// idle.
func layerTimes(tr *tracer, out map[string]float64) error {
	spans := map[string]string{
		"graph.parse_ms":         "graph.parse",
		"graph.parse_delta_ms":   "graph.parse_delta",
		"compile.compile_ms":     "compile.compile",
		"compile.apply_ms":       "compile.apply",
		"compile.apply_burst_ms": "compile.apply_burst",
		"compile.load_ms":        "compile.load",
		"perfect.stage1_ms":      "perfect.stage1",
		"cluster.stage2_ms":      "cluster.stage2",
		"recast.stage3_ms":       "recast.stage3",
		"wal.append_ms":          "wal.append",
		"wal.sync_ms":            "wal.sync",
		"wal.replay_ms":          "wal.replay",
	}
	for metric, name := range spans {
		if err := p50Into(out, metric, tr.opSums(name)); err != nil {
			return err
		}
	}
	for _, layer := range []string{"graph", "compile", "perfect", "cluster", "recast", "wal", "bench"} {
		if err := p50Into(out, layer+".self_ms", tr.opSelf(layer)); err != nil {
			return err
		}
	}
	return p50Into(out, "core.extract_self_ms", tr.opSelf("core"))
}

// p50Into stores the median of xs under name, 0 when xs is empty.
func p50Into(out map[string]float64, name string, xs []float64) error {
	if len(xs) == 0 {
		out[name] = 0
		return nil
	}
	v, err := percentile(xs, 50)
	if err != nil {
		return err
	}
	out[name] = v
	return nil
}
