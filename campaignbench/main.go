// Command campaignbench is failatomic's end-to-end benchmark. It runs one
// workload against the public functions of the layers, checks every
// operation's output against pinned references, and prints every metric
// by name and unit, ending with one JSON result line.
//
// Usage (from the repository root; bench.sh builds and runs it):
//
//	campaignbench --workload detect|mask|serve --seed N --seconds S --trace 0|1
//	campaignbench compare BASE_DIR HEAD_DIR   # verdict per workload × metric
//	campaignbench pin > campaignbench/refs.json
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists every workload; a traced run reads each per-layer
// metric from a slice of its home workload.
var workloadNames = []string{"detect", "mask", "serve"}

// benchWorkloads lists, in order, the workloads BENCHMARK.json names and
// bounds. serve is left out: its jobs fsync the job store, and the disk
// of a shared machine moved serve's ops_per_s past its bound from one set
// of runs to the next. It still runs with --workload serve, and every
// traced run still measures its layers.
var benchWorkloads = []string{"detect", "mask"}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// setup_s is the median over set-up child processes (see
	// sampleSetups); setupSpan makes a set-up of a few milliseconds as
	// steadily sampled as one of seconds.
	setupReps int
	setupSpan time.Duration
	// setupOnly makes the process a set-up child: set up, print "ready",
	// exit.
	setupOnly bool
	// slice is how long each other workload runs in a traced run.
	slice time.Duration
	// minDetectOps is the detect loop's floor on timed ops.
	minDetectOps int
	refs         Refs
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if err := compareMain(args[1:], stdout); err != nil {
				fmt.Fprintln(os.Stderr, "campaignbench:", err)
				return 1
			}
			return 0
		case "pin":
			dir, err := os.MkdirTemp("", "campaignbench-pin")
			if err == nil {
				err = pin(ctx, stdout, dir)
				os.RemoveAll(dir)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaignbench:", err)
				return 1
			}
			return 0
		}
	}
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	res, err := bench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	if res == nil { // set-up child
		return 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	cfg := config{setupReps: 5, setupSpan: time.Second, slice: 2 * time.Second, minDetectOps: 110}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (fixes the order of inputs only)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per loop")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "campaignbench"), "directory for scratch files and traces")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up once, print \"ready\" and exit (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if !validWorkload(cfg.workload) {
		return cfg, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		return cfg, errors.New("--seconds must be positive, --trace 0 or 1")
	}
	cfg.trace = trace == 1
	refs, err := loadRefs()
	if err != nil {
		return cfg, err
	}
	cfg.refs = refs
	return cfg, nil
}

func validWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

func newWorkload(name string, cfg config, minDetectOps int) workload {
	switch name {
	case "detect":
		return &detectWorkload{refs: cfg.refs, out: cfg.out, seed: cfg.seed, minOps: minDetectOps}
	case "mask":
		return &maskWorkload{refs: cfg.refs, seed: cfg.seed}
	default:
		return &serveWorkload{refs: cfg.refs, out: cfg.out, seed: cfg.seed}
	}
}

// bench runs one invocation and returns its result (nil for a set-up
// child, which prints only "ready").
func bench(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	minOps := cfg.minDetectOps
	if cfg.trace { // the floor serves op_ms_p90, which traced runs do not report
		minOps = 0
	}
	// Only the untraced measuring process reads the speed probe; set-up
	// children and traced runs report raw times.
	var probe *speedProbe
	var setups, setupSpeeds []float64
	if !cfg.setupOnly && !cfg.trace {
		var err error
		if probe, err = newSpeedProbe(); err != nil {
			return nil, err
		}
		defer probe.close()
		if setups, setupSpeeds, err = sampleSetups(ctx, cfg, probe); err != nil {
			return nil, err
		}
	}
	w := newWorkload(cfg.workload, cfg, minOps)
	err := w.setup(ctx)
	defer w.close()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	if cfg.setupOnly {
		fmt.Fprintln(stdout, "ready")
		return nil, nil
	}
	if err := w.warmup(ctx); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
	}
	if cfg.trace {
		return tracedRun(ctx, cfg, w, d, stdout)
	}

	windowPeakRSSMiB() // the first window's peak leaves set-up out
	cpu0 := cpuTime()
	res := w.loop(ctx, d, nil, probe)
	cpu := cpuTime() - cpu0
	if len(res.peaks) == 0 { // a loop too short to close a window
		res.peaks = append(res.peaks, windowPeakRSSMiB())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "campaignbench: first failure:", res.firstErr)
	}
	p50, p90, above := res.latency(0.9)
	setupS, opsPerS := quantile(setups, 0.5), res.opsPerSec()
	setupSpeed := quantile(setupSpeeds, 0.5)
	speed := quantile(append([]float64(nil), res.speeds...), 0.5)
	values := map[string]float64{
		"setup_s":     normalise(setupS, setupSpeed, false),
		"ops_per_s":   normalise(opsPerS, speed, true),
		"op_ms_p50":   normalise(p50, speed, false),
		"op_ms_p90":   normalise(p90, speed, false),
		"ok_frac":     1 - ratio(float64(res.failed), float64(res.attempted)),
		"peak_rss_mb": quantile(res.peaks, 0.5) - probeBytes/(1<<20),
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops timed over %d inputs (%d ops above p90) of %d attempted, %d failed, %.2f s measured, %.2f s CPU\n",
		cfg.workload, cfg.seed, res.timed, len(res.byInput), above, res.attempted, res.failed, res.elapsed.Seconds(), cpu.Seconds())
	fmt.Fprintf(stdout, "%d set-ups: min %.4f s, median %.4f s, max %.4f s\n", len(setups), quantile(setups, 0), setupS, quantile(setups, 1))
	fmt.Fprintf(stdout, "speed probe: median %.3f steps/us over %d set-up readings, %.3f over %d loop readings (reference %.1f)\n",
		setupSpeed, len(setupSpeeds), speed, len(res.speeds), refProbeSpeed)
	fmt.Fprintf(stdout, "raw, before normalising to the reference speed: setup_s %.4f s, ops_per_s %.4f ops/s, op_ms_p50 %.4f ms, op_ms_p90 %.4f ms\n",
		setupS, opsPerS, p50, p90)
	if n := len(res.windows); n > 0 {
		win := append([]float64(nil), res.windows...)
		fmt.Fprintf(stdout, "ops/s over %d windows: min %.2f, median %.2f, max %.2f\n", n, quantile(win, 0), quantile(win, 0.5), quantile(win, 1))
		fmt.Fprintf(stdout, "peak resident set per window, speed probe's %d MiB included: min %.2f, median %.2f, max %.2f MiB\n",
			probeBytes>>20, quantile(res.peaks, 0), quantile(res.peaks, 0.5), quantile(res.peaks, 1))
	}
	switch cfg.workload {
	case "detect", "serve":
		fmt.Fprintf(stdout, "%-36s %14.4f runs/s\n", "injection_runs_per_s", float64(res.runs)/res.elapsed.Seconds())
	case "mask":
		overhead, _ := maskOverhead(res)
		fmt.Fprintf(stdout, "%-36s %14.4f ratio\n", "mask_overhead_x", overhead)
	}
	return &result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   render(stdout, endToEnd, values),
	}, nil
}

// maxSetupReps caps the set-up children of one run.
const maxSetupReps = 200

// sampleSetups runs set-up children, at least cfg.setupReps of them and
// more, up to maxSetupReps, until they have taken cfg.setupSpan in all,
// and returns their set-up seconds and the speed-probe readings taken
// after each.
func sampleSetups(ctx context.Context, cfg config, probe *speedProbe) (setups, speeds []float64, err error) {
	spent := 0.0
	for len(setups) < cfg.setupReps || spent < cfg.setupSpan.Seconds() && len(setups) < maxSetupReps {
		s, err := setupChild(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
		spent += s
		speeds = probe.measure(speeds)
	}
	return setups, speeds, nil
}

// setupChild runs one cold set-up in a child process and returns the
// seconds from starting the process to its "ready" line: process start,
// package initialisation, loading the references and the workload's
// set-up.
func setupChild(ctx context.Context, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--out", cfg.out, "--setup-only")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	io.Copy(io.Discard, stdout)
	if err := errors.Join(cmd.Wait(), rerr); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	if line != "ready\n" {
		return 0, fmt.Errorf("set-up child printed %q", line)
	}
	return d.Seconds(), nil
}

// overheadRounds is how many untraced/traced segment pairs a traced run
// alternates, so a slow spell of the machine does not land on one side.
const overheadRounds = 2

// tracedRun measures the named workload for d, alternating untraced and
// traced segments (their difference is the tracing overhead). It then
// runs a short traced slice of every other workload, so each per-layer
// metric is read from the workload whose path calls that layer, and
// times the layer probes. Spans go to one JSON-lines file per workload
// under cfg.out.
func tracedRun(ctx context.Context, cfg config, w workload, d time.Duration, stdout io.Writer) (*result, error) {
	base := newLoopResult(nil)
	tl := tracedLoop{res: newLoopResult(nil), tr: newTracer()}
	seg := d / (2 * overheadRounds)
	for i := 0; i < overheadRounds; i++ {
		base.merge(w.loop(ctx, seg, nil, nil))
		tl.res.merge(w.loop(ctx, seg, tl.tr, nil))
	}
	loops := map[string]tracedLoop{cfg.workload: tl}
	for _, name := range workloadNames {
		if name == cfg.workload {
			continue
		}
		other := newWorkload(name, cfg, 0)
		err := other.setup(ctx)
		if err == nil {
			err = other.warmup(ctx)
		}
		if err == nil {
			otl := tracedLoop{tr: newTracer()}
			otl.res = other.loop(ctx, cfg.slice, otl.tr, nil)
			loops[name] = otl
		}
		other.close()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	values := make(map[string]float64)
	attempted, failed := base.attempted, base.failed
	for _, name := range workloadNames {
		l := loops[name]
		layerMetrics(name, l, values)
		attempted += l.res.attempted
		failed += l.res.failed
		if l.res.firstErr != nil {
			fmt.Fprintf(os.Stderr, "campaignbench: %s: first failure: %v\n", name, l.res.firstErr)
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, name))
		if err := l.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace %s: %d spans, %d ops -> %s\n", name, l.tr.len(), l.res.timed, path)
	}
	self := tl.tr.selfTimes()
	values["self_ms_per_op.bench"] = ms(self["bench"])
	values["trace.overhead_pct"] = (ratio(base.opsPerSec(), tl.res.opsPerSec()) - 1) * 100
	if err := runProbes(values); err != nil {
		return nil, err
	}
	baseP50, _, _ := base.latency(0.5)
	tracedP50, _, _ := tl.res.latency(0.5)
	fmt.Fprintf(stdout, "tracing overhead on %s: %.0f ops/s untraced, %.0f ops/s traced; op_ms_p50 %.4f vs %.4f\n",
		cfg.workload, base.opsPerSec(), tl.res.opsPerSec(), baseP50, tracedP50)
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   render(stdout, perLayer(), values),
	}, nil
}
