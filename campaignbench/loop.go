package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// workload is one benchmark workload: set-up, warm-up, then a closed
// measurement loop.
type workload interface {
	// setup prepares the workload; setup_s times it.
	setup(ctx context.Context) error
	// warmup runs a few untimed ops after set-up. A program error fails
	// it; output mismatches are left to the measured ops, which run the
	// same inputs and count them as failures.
	warmup(ctx context.Context) error
	// loop runs operations for at least d (whole passes where the
	// workload says so), tracing them when tr is non-nil and reading the
	// speed probe as windows close when probe is non-nil.
	loop(ctx context.Context, d time.Duration, tr *Tracer, probe *speedProbe) *loopResult
	// close releases what setup acquired.
	close()
}

// loopResult is what one measurement loop observed.
type loopResult struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	// timed counts the timed ops; byInput holds their latencies (ms) by
	// input, up to maxSamples each, and winOf the index of the rate
	// window each kept latency fell in.
	timed   int
	byInput map[string][]float64
	winOf   map[string][]int
	// windows holds the timed-op rate of each completed window (ops/s);
	// winStart and winOps track the open one.
	windows  []float64
	winStart time.Time
	winOps   int
	// probe, when set, is read as each window closes: speeds holds its
	// readings and peaks each closed window's peak resident set (MiB).
	probe         *speedProbe
	speeds, peaks []float64
	// runs counts injector runs the ops executed.
	runs int
	// samples and counts are per-layer observations (traced loops only
	// fill most of them).
	samples map[string][]float64
	counts  map[string]float64
	// inputSeen and sampleSeen count the values offered to each byInput
	// and samples key; rng picks the kept value a new one replaces.
	inputSeen, sampleSeen map[string]int
	rng                   *rand.Rand
}

func newLoopResult(probe *speedProbe) *loopResult {
	return &loopResult{
		probe:      probe,
		byInput:    make(map[string][]float64),
		winOf:      make(map[string][]int),
		samples:    make(map[string][]float64),
		counts:     make(map[string]float64),
		inputSeen:  make(map[string]int),
		sampleSeen: make(map[string]int),
		rng:        rand.New(rand.NewSource(1)),
	}
}

// maxSamples caps the values kept per input or sample name. Past the cap
// each new value replaces a kept one with probability maxSamples/seen
// (reservoir sampling), so the kept values stay a uniform sample of all
// of them. The cap keeps the benchmark's own memory flat however many
// ops a run times; growing sample slices moved peak_rss_mb by a fifth
// from run to run on mask.
const maxSamples = 4096

// slot returns where the seen-th value of a key with n kept values goes:
// n to append it, an index below n to replace that value, or -1 to drop
// it.
func (r *loopResult) slot(n, seen int) int {
	if n < maxSamples {
		return n
	}
	if j := r.rng.Intn(seen); j < maxSamples {
		return j
	}
	return -1
}

// keep adds v, the seen-th value of its key, to that key's kept values.
func (r *loopResult) keep(vals []float64, seen int, v float64) []float64 {
	switch j := r.slot(len(vals), seen); {
	case j == len(vals):
		vals = append(vals, v)
	case j >= 0:
		vals[j] = v
	}
	return vals
}

// op records one attempted operation on an input: its latency (counted
// only when timed) and its check outcome.
func (r *loopResult) op(input string, d time.Duration, timed bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if timed {
		r.timed++
		r.inputSeen[input]++
		vals, wins := r.byInput[input], r.winOf[input]
		switch j := r.slot(len(vals), r.inputSeen[input]); {
		case j == len(vals):
			r.byInput[input] = append(vals, ms(d))
			r.winOf[input] = append(wins, len(r.windows))
		case j >= 0:
			vals[j], wins[j] = ms(d), len(r.windows)
		}
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// startWindows opens the first rate window.
func (r *loopResult) startWindows(now time.Time) {
	r.mu.Lock()
	r.winStart, r.winOps = now, 0
	r.mu.Unlock()
}

// tick counts one timed op into the open window and, once the window
// has lasted at least length (0 = close it now), closes it. With a speed
// probe it then records the window's peak resident set and reads the
// probe, and opens the next window after that.
func (r *loopResult) tick(now time.Time, ops int, length time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.winOps += ops
	if el := now.Sub(r.winStart); el > 0 && el >= length && r.winOps > 0 {
		r.windows = append(r.windows, float64(r.winOps)/el.Seconds())
		if r.probe != nil {
			r.peaks = append(r.peaks, windowPeakRSSMiB())
			r.speeds = r.probe.measure(r.speeds)
			now = time.Now()
		}
		r.winStart, r.winOps = now, 0
	}
}

// merge folds another loop's observations into r.
func (r *loopResult) merge(o *loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.elapsed += o.elapsed
	r.timed += o.timed
	r.runs += o.runs
	// o's window indexes follow every index r has used.
	off := 0
	for _, wins := range r.winOf {
		for _, w := range wins {
			off = max(off, w+1)
		}
	}
	r.windows = append(r.windows, o.windows...)
	r.speeds = append(r.speeds, o.speeds...)
	r.peaks = append(r.peaks, o.peaks...)
	for k, v := range o.byInput {
		r.byInput[k] = append(r.byInput[k], v...)
		for _, w := range o.winOf[k] {
			r.winOf[k] = append(r.winOf[k], off+w)
		}
	}
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	for k, v := range o.counts {
		r.counts[k] += v
	}
	for k, v := range o.inputSeen {
		r.inputSeen[k] += v
	}
	for k, v := range o.sampleSeen {
		r.sampleSeen[k] += v
	}
}

func (r *loopResult) sample(name string, v float64) {
	r.mu.Lock()
	r.sampleSeen[name]++
	r.samples[name] = r.keep(r.samples[name], r.sampleSeen[name], v)
	r.mu.Unlock()
}

func (r *loopResult) count(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// opsPerSec is the median rate over the loop's windows, which keeps a
// burst of contention from another process on a shared machine from
// moving the whole run; a loop too short for three windows reports its
// mean rate.
func (r *loopResult) opsPerSec() float64 {
	if len(r.windows) >= 3 {
		return quantile(append([]float64(nil), r.windows...), 0.5)
	}
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.timed) / r.elapsed.Seconds()
}

// latency summarises the timed ops' latencies in ms. typical is the
// median, over the loop's inputs, of each input's median op latency. tail
// scales typical by the q-quantile, pooled over every timed op, of the
// op's pace: its latency over its own input's median, divided by the
// median of that ratio over the ops of its rate window. above counts the
// ops beyond that quantile.
//
// Every pass holds every input once. Pooling raw latencies instead puts a
// quantile on the boundary between two inputs' latency clusters, where it
// follows the slowest op of one input and the fastest of the next. Taken
// relative to each input's median, a slow tenth of ops still moves tail.
// Taken relative to its window as well, a spell in which a shared
// machine runs every op slower moves typical and ops_per_s, not tail: a
// tail of ops that lag the ops around them, such as a GC pause or an
// fsync stall every Nth op, still does.
func (r *loopResult) latency(q float64) (typical, tail float64, above int) {
	var meds []float64
	byWin := make(map[int][]float64)
	type paced struct {
		rel float64
		win int
	}
	var ops []paced
	for in, v := range r.byInput {
		m := quantile(append([]float64(nil), v...), 0.5)
		meds = append(meds, m)
		wins := r.winOf[in]
		for i, x := range v {
			w := 0
			if i < len(wins) {
				w = wins[i]
			}
			ops = append(ops, paced{ratio(x, m), w})
			byWin[w] = append(byWin[w], ratio(x, m))
		}
	}
	pace := make(map[int]float64, len(byWin))
	for w, v := range byWin {
		pace[w] = quantile(v, 0.5)
	}
	rel := make([]float64, len(ops))
	for i, o := range ops {
		rel[i] = ratio(o.rel, pace[o.win])
	}
	cut := quantile(rel, q)
	for _, x := range rel {
		if x > cut {
			above++
		}
	}
	typical = quantile(meds, 0.5)
	return typical, typical * cut, above
}

// rateWindow is the window length of the time-windowed loops.
const rateWindow = time.Second

// order yields the op sequence: concatenated seed-shuffled permutations
// of n inputs. The seed fixes only the order; every pass holds every
// input once, so runs of any length measure the same input mix.
type order struct {
	rng  *rand.Rand
	n    int
	pass []int
}

func newOrder(seed int64, n int) *order {
	return &order{rng: rand.New(rand.NewSource(seed)), n: n}
}

// next returns the next input index and whether it starts a new pass.
func (o *order) next() (int, bool) {
	fresh := len(o.pass) == 0
	if fresh {
		o.pass = o.rng.Perm(o.n)
	}
	i := o.pass[0]
	o.pass = o.pass[1:]
	return i, fresh
}

// checkErr wraps an output mismatch so it names the op.
func checkErr(op int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("op %d: %w", op, err)
}

// opDir is a scratch directory for one workload's files.
func opDir(out, name string) (string, error) {
	dir := filepath.Join(out, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
