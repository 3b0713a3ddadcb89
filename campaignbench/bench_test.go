package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// setupChildEnv marks a test binary started as a set-up child.
const setupChildEnv = "CAMPAIGNBENCH_TEST_SETUP_CHILD"

// TestMain lets the test binary stand in for the benchmark binary: a run
// under test starts its set-up children with os.Executable, which is the
// test binary.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
	}
	os.Setenv(setupChildEnv, "1")
	os.Exit(m.Run())
}

// shortConfig is a fast invocation of one workload: one set-up child, a
// short loop, scratch files under the test's temp dir.
func shortConfig(t *testing.T, workload string, refs Refs) config {
	t.Helper()
	return config{
		workload:  workload,
		seed:      3,
		seconds:   0.3,
		out:       t.TempDir(),
		setupReps: 1,
		slice:     300 * time.Millisecond,
		refs:      refs,
	}
}

func pinned(t *testing.T) Refs {
	t.Helper()
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestShortRunOfEachWorkload(t *testing.T) {
	refs := pinned(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			res, err := bench(context.Background(), shortConfig(t, wl, refs), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := keys(res.Metrics), names(endToEnd); !equalStrings(got, want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if v := res.Metrics["ok_frac"].Value; v != 1 {
				t.Errorf("ok_frac = %v, want 1", v)
			}
		})
	}
}

// TestDoctoredReferenceIsCaught changes pinned values per workload and
// expects the ops that check them to fail.
func TestDoctoredReferenceIsCaught(t *testing.T) {
	for _, c := range []struct {
		name, workload string
		doctor         func(app string, r *AppRef)
	}{
		{"detect", "detect", func(_ string, r *AppRef) { r.LogSHA256 = "doctored" }},
		{"mask", "mask", func(_ string, r *AppRef) { r.MaskedCalls++ }},
		// One app whose wrap set is not the pinned one must not drop out
		// of the loop unchecked.
		{"mask-wrap-set", "mask", func(app string, r *AppRef) {
			if app == "RBMap" {
				r.Wrap = r.Wrap[1:]
			}
		}},
		{"serve", "serve", func(_ string, r *AppRef) { r.ReportSHA256 = "doctored" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			refs := pinned(t)
			for name, ref := range refs {
				c.doctor(name, &ref)
				refs[name] = ref
			}
			res, err := bench(context.Background(), shortConfig(t, c.workload, refs), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("doctored reference not caught: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if v := res.Metrics["ok_frac"].Value; v >= 1 {
				t.Fatalf("ok_frac = %v, want < 1 (fail_frac > 0)", v)
			}
		})
	}
}

func TestSameSeedSameOrder(t *testing.T) {
	seq := func(seed int64) []int {
		o := newOrder(seed, 16)
		out := make([]int, 64)
		for i := range out {
			out[i], _ = o.next()
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave two orders: %v vs %v", a, b)
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same order")
	}
	// Every pass holds every input once.
	for p := 0; p < 4; p++ {
		pass := append([]int(nil), a[p*16:(p+1)*16]...)
		sort.Ints(pass)
		for i, v := range pass {
			if v != i {
				t.Fatalf("pass %d is not a permutation: %v", p, a[p*16:(p+1)*16])
			}
		}
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	cfg := shortConfig(t, "mask", pinned(t))
	cfg.trace = true
	res, err := bench(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d ops", res.Failed, res.Attempted)
	}
	if got, want := keys(res.Metrics), names(perLayer()); !equalStrings(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	// render fills a metric nobody computed with 0, so every metric that
	// cannot be 0 on a correct run must be above it. The fingerprint cache
	// finds nothing to reuse on the Table-1 apps, so its hit fraction
	// reads 0; TestDetectCountsCacheLookups checks that it has a base.
	mayBeZero := map[string]bool{
		"checkpoint.skips": true, "serve.jobs_drifted_total": true, "trace.overhead_pct": true,
		"objgraph.cache_hit_frac": true,
	}
	for name, v := range res.Metrics {
		if !mayBeZero[name] && !(v.Value > 0) {
			t.Errorf("%s = %v, want > 0", name, v.Value)
		}
	}
	for _, wl := range workloadNames {
		if _, err := os.Stat(cfg.out + "/trace-mask-seed3-" + wl + ".jsonl"); err != nil {
			t.Errorf("no trace for %s: %v", wl, err)
		}
	}
	// Root spans carry unique op numbers across the traced segments, and
	// every child span belongs to its parent's op.
	data, err := os.ReadFile(cfg.out + "/trace-mask-seed3-mask.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	roots := map[int]bool{}
	for _, s := range spans {
		switch {
		case s.Parent < 0 && roots[s.Op]:
			t.Fatalf("op %d has two root spans", s.Op)
		case s.Parent < 0:
			roots[s.Op] = true
		case spans[s.Parent].Op != s.Op:
			t.Fatalf("span %+v belongs to op %d, its parent to op %d", s, s.Op, spans[s.Parent].Op)
		}
	}
}

// TestLatencyTailSeesSlowOps pins op_ms_p50/p90: slowing a fifth of every
// input's ops moves p90 but not p50.
func TestLatencyTailSeesSlowOps(t *testing.T) {
	fill := func(slow int) *loopResult {
		r := newLoopResult(nil)
		for in, base := range map[string]float64{"a": 10, "b": 100} {
			for i := 0; i < 10; i++ {
				v := base
				if i < slow {
					v *= 2
				}
				r.byInput[in] = append(r.byInput[in], v)
			}
		}
		return r
	}
	for _, c := range []struct {
		slow     int
		p50, p90 float64
		above    int
	}{
		{0, 55, 55, 0},
		{2, 55, 110, 0},
		{1, 55, 55 * 1.1, 2},
	} {
		p50, p90, above := fill(c.slow).latency(0.9)
		if math.Abs(p50-c.p50) > 1e-9 || math.Abs(p90-c.p90) > 1e-9 || above != c.above {
			t.Errorf("%d slow ops per input: p50 %v, p90 %v, %d above; want %v, %v, %d",
				c.slow, p50, p90, above, c.p50, c.p90, c.above)
		}
	}
}

// TestLatencyTailIgnoresSlowSpell pins the pace normalisation of
// op_ms_p90: a window in which every op runs twice as slow moves neither
// p50 nor p90, while one slow op in every window of every input still
// moves p90.
func TestLatencyTailIgnoresSlowSpell(t *testing.T) {
	fill := func(slow func(win, i int) bool) *loopResult {
		r := newLoopResult(nil)
		for in, base := range map[string]float64{"a": 10, "b": 100} {
			for win := 0; win < 4; win++ {
				for i := 0; i < 5; i++ {
					v := base
					if slow(win, i) {
						v *= 2
					}
					r.byInput[in] = append(r.byInput[in], v)
					r.winOf[in] = append(r.winOf[in], win)
				}
			}
		}
		return r
	}
	for _, c := range []struct {
		name     string
		slow     func(win, i int) bool
		p50, p90 float64
	}{
		{"slow window", func(win, _ int) bool { return win == 3 }, 55, 55},
		{"slow op per window", func(_, i int) bool { return i == 0 }, 55, 110},
	} {
		p50, p90, _ := fill(c.slow).latency(0.9)
		if math.Abs(p50-c.p50) > 1e-9 || math.Abs(p90-c.p90) > 1e-9 {
			t.Errorf("%s: p50 %v, p90 %v; want %v, %v", c.name, p50, p90, c.p50, c.p90)
		}
	}
}

// TestSpeedProbeWalksOneCycle checks that the probe's table is a single
// cycle through every slot, so no walk gets stuck in a short, cached loop.
func TestSpeedProbeWalksOneCycle(t *testing.T) {
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	at := int32(0)
	for i := 1; i <= probeSlots; i++ {
		at = p.next[at]
		if at == 0 && i < probeSlots {
			t.Fatalf("walk returned to slot 0 after %d of %d steps", i, probeSlots)
		}
	}
	if at != 0 {
		t.Fatalf("walk of %d steps ended at slot %d, want 0", probeSlots, at)
	}
	speeds := p.measure(nil)
	if len(speeds) != probeReads {
		t.Fatalf("%d readings, want %d", len(speeds), probeReads)
	}
	for _, s := range speeds {
		if !(s > 0) {
			t.Fatalf("reading %v, want > 0", s)
		}
	}
}

// TestNormalise pins the reference-speed arithmetic: at half the reference
// speed a rate doubles and a duration halves; with no readings both stay
// raw.
func TestNormalise(t *testing.T) {
	half := refProbeSpeed / 2
	for _, c := range []struct {
		raw, speed float64
		rate       bool
		want       float64
	}{
		{10, half, true, 20},
		{10, half, false, 5},
		{10, refProbeSpeed, true, 10},
		{10, 0, false, 10},
	} {
		if got := normalise(c.raw, c.speed, c.rate); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("normalise(%v, %v, %v) = %v, want %v", c.raw, c.speed, c.rate, got, c.want)
		}
	}
}

// TestSamplesStayUniformPastTheCap checks the reservoir: memory stops
// growing at maxSamples, and the kept values still span the whole run.
func TestSamplesStayUniformPastTheCap(t *testing.T) {
	r := newLoopResult(nil)
	n := 10 * maxSamples
	for i := 0; i < n; i++ {
		r.sample("x", float64(i))
	}
	kept := r.samples["x"]
	if len(kept) != maxSamples {
		t.Fatalf("kept %d values, want %d", len(kept), maxSamples)
	}
	if med := quantile(kept, 0.5); math.Abs(med-float64(n)/2) > 0.05*float64(n) {
		t.Fatalf("median of kept values %v, want about %v", med, n/2)
	}
}

// TestDetectCountsCacheLookups checks that objgraph.cache_hit_frac is a
// fraction of real lookups: a traced detect pass counts them.
func TestDetectCountsCacheLookups(t *testing.T) {
	w := &detectWorkload{refs: pinned(t), out: t.TempDir(), seed: 1}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r := w.loop(context.Background(), 0, newTracer(), nil) // one pass
	if r.failed != 0 || r.counts["objgraph.cache_lookups"] == 0 {
		t.Fatalf("failed %d ops, counted %v cache lookups", r.failed, r.counts["objgraph.cache_lookups"])
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		spec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, catalogue has %d", kind, len(got), len(want))
		}
		for i := range want {
			better := map[bool]string{true: "higher", false: "lower"}[want[i].higher]
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != better {
				t.Errorf("%s[%d] = %+v, catalogue has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer())
	if len(sp.Workloads) != len(benchWorkloads) {
		t.Fatalf("workloads %+v, want %v", sp.Workloads, benchWorkloads)
	}
	for i, w := range sp.Workloads {
		if w.Name != benchWorkloads[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, benchWorkloads[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 5}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &Tracer{}
	root := tr.add("bench.op", 0, 100, -1, 0)
	c := tr.add("inject.Campaign", 10, 90, root, 0)
	tr.add("bench.OnRun", 20, 30, c, 0)
	tr.add("bench.OnRun", 25, 40, c, 0) // overlaps the first callback
	tr.add("bench.OnRun", 80, 95, c, 0) // sticks out of its parent
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"bench":  20 + 10 + 15 + 15, // root minus campaign, plus the callbacks
		"inject": 80 - 20 - 10,      // campaign minus [20,40] and [80,90]
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self[%s] = %d, want %d", l, self[l], d)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		head   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", scale(1), false, 0.1, "within bound"},
		{"faster", scale(0.8), false, 0.1, "better"},
		{"slower", scale(1.2), false, 0.1, "worse"},
		{"slightly slower", scale(1.05), false, 0.1, "within bound"},
		{"higher is better", scale(1.2), true, 0.1, "better"},
		{"noisy", noisy, false, 0.1, "unresolved"},
		{"per-layer unchanged", scale(1), false, 0, "unchanged"},
		{"per-layer slower", scale(1.2), false, 0, "worse"},
		{"per-layer faster", scale(0.8), false, 0, "better"},
	} {
		if got := verdict(base, c.head, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if math.IsNaN(relDelta(0, 1)) {
		t.Error("relDelta of a zero base is NaN")
	}
}
