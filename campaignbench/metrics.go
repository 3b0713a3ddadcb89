package main

import (
	"fmt"
	"io"
	"sort"
)

// metric is one entry of the catalogue BENCHMARK.json mirrors.
type metric struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off on every workload.
var endToEnd = []metric{
	{"setup_s", "s", false},
	{"ops_per_s", "ops/s", true},
	{"op_ms_p50", "ms", false},
	{"op_ms_p90", "ms", false},
	{"ok_frac", "frac", true},
	{"peak_rss_mb", "MiB", false},
}

// shapes are the probe graph shapes (see probes.go).
var shapes = []string{"list", "rbtree", "hashmap", "xmldoc"}

// selfLayers are the layers whose self time the trace reports, each with
// the workload whose traced loop it is read from ("" = the named one).
var selfLayers = []struct{ layer, home string }{
	{"bench", ""},
	{"inject", "detect"}, {"replog", "detect"}, {"detect", "detect"},
	{"core", "mask"}, {"apps", "mask"},
	{"serve", "serve"}, {"sched", "serve"},
}

// perLayer lists the traced run's metrics. Each is read from its home
// workload (the prefix before the first dot names the layer).
func perLayer() []metric {
	m := []metric{
		{"inject.clean_run_ms", "ms", false},
		{"inject.run_us_p50", "us", false},
		{"inject.run_us_p90", "us", false},
		{"inject.replayed_run_us_p50", "us", false},
		{"inject.replayed_run_us_p90", "us", false},
		{"inject.replay_frac", "frac", false},
		{"inject.self_ms", "ms", false},
		{"injection_runs_per_s.detect", "runs/s", true},
		{"objgraph.cache_hit_frac", "frac", true},
		{"replog.append_us_p50", "us", false},
		{"replog.close_ms", "ms", false},
		{"replog.write_ms", "ms", false},
		{"detect.classify_ms", "ms", false},
		{"apps.run_us_p50", "us", false},
		{"core.protect_us", "us", false},
		{"mask_overhead_x", "ratio", false},
		{"checkpoint.masked_calls_per_op", "count", false},
		{"checkpoint.rollbacks_per_op", "count", false},
		{"checkpoint.skips", "count", false},
		{"serve.submit_ms_p50", "ms", false},
		{"sched.queue_wait_ms_p50", "ms", false},
		{"sched.queue_wait_ms_p90", "ms", false},
		{"serve.run_ms_p50", "ms", false},
		{"serve.finalize_ms_p50", "ms", false},
		{"serve.fetch_ms_p50", "ms", false},
		{"serve.jobs_drifted_total", "count", false},
		{"injection_runs_per_s.serve", "runs/s", true},
	}
	for _, kind := range []string{"objgraph.fingerprint_us.", "objgraph.capture_us.", "checkpoint.capture_us.", "checkpoint.restore_us."} {
		for _, s := range shapes {
			m = append(m, metric{kind + s, "us", false})
		}
	}
	for _, l := range selfLayers {
		m = append(m, metric{"self_ms_per_op." + l.layer, "ms", false})
	}
	return append(m, metric{"trace.overhead_pct", "%", false})
}

// tracedLoop is one workload's traced measurement inside a traced run.
type tracedLoop struct {
	res *loopResult
	tr  *Tracer
}

// layerMetrics derives the per-layer metrics of one workload's traced
// loop into out.
func layerMetrics(workload string, tl tracedLoop, out map[string]float64) {
	r := tl.res
	p := func(name string, q float64) float64 { return quantile(r.samples[name], q) }
	perOp := func(v float64) float64 {
		return ratio(v, float64(r.timed))
	}
	self := tl.tr.selfTimes()
	switch workload {
	case "detect":
		out["inject.clean_run_ms"] = p("inject.clean_run_ms", 0.5)
		out["inject.run_us_p50"] = p("inject.run_us", 0.5)
		out["inject.run_us_p90"] = p("inject.run_us", 0.9)
		out["inject.replayed_run_us_p50"] = p("inject.replayed_run_us", 0.5)
		out["inject.replayed_run_us_p90"] = p("inject.replayed_run_us", 0.9)
		out["inject.replay_frac"] = ratio(r.counts["inject.replayed_runs"], r.counts["inject.runs"])
		out["inject.self_ms"] = ms(self["inject"])
		out["injection_runs_per_s.detect"] = float64(r.runs) / r.elapsed.Seconds()
		out["objgraph.cache_hit_frac"] = ratio(r.counts["objgraph.cache_hits"], r.counts["objgraph.cache_lookups"])
		out["replog.append_us_p50"] = p("replog.append_us", 0.5)
		out["replog.close_ms"] = p("replog.close_ms", 0.5)
		out["replog.write_ms"] = p("replog.write_ms", 0.5)
		out["detect.classify_ms"] = p("detect.classify_ms", 0.5)
	case "mask":
		overhead, plain := maskOverhead(r)
		out["apps.run_us_p50"] = quantile(plain, 0.5)
		out["core.protect_us"] = p("core.protect_us", 0.5)
		out["mask_overhead_x"] = overhead
		out["checkpoint.masked_calls_per_op"] = perOp(r.counts["checkpoint.masked_calls"])
		out["checkpoint.rollbacks_per_op"] = perOp(r.counts["checkpoint.rollbacks"])
		out["checkpoint.skips"] = r.counts["checkpoint.skips"]
	case "serve":
		out["serve.submit_ms_p50"] = p("serve.submit_ms", 0.5)
		out["sched.queue_wait_ms_p50"] = p("sched.queue_wait_ms", 0.5)
		out["sched.queue_wait_ms_p90"] = p("sched.queue_wait_ms", 0.9)
		out["serve.run_ms_p50"] = p("serve.run_ms", 0.5)
		out["serve.finalize_ms_p50"] = p("serve.finalize_ms", 0.5)
		out["serve.fetch_ms_p50"] = p("serve.fetch_ms", 0.5)
		out["serve.jobs_drifted_total"] = p("serve.jobs_drifted_total", 1)
		out["injection_runs_per_s.serve"] = float64(r.runs) / r.elapsed.Seconds()
	}
	for _, l := range selfLayers {
		if l.home == workload {
			out["self_ms_per_op."+l.layer] = ms(self[l.layer])
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render prints one line per metric of the catalogue, by name and unit,
// and returns the result's metrics map.
func render(w io.Writer, catalogue []metric, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(catalogue))
	names := make([]string, 0, len(catalogue))
	for _, m := range catalogue {
		out[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	return out
}
