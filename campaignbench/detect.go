package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/core"
	"failatomic/internal/detect"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
)

// detectWorkload is `fadetect -app X -log` for every Table-1 app per
// pass, in seed-shuffled order, with default options (fingerprint
// engine, global session): inject.Campaign with a replog.Journal as
// OnRun, then detect.Classify, then replog.Write. One op is one app.
type detectWorkload struct {
	refs Refs
	out  string
	seed int64
	// minOps extends the loop to whole passes until at least this many
	// ops are timed, so op_ms_p90 has ten samples above it.
	minOps int
	apps   []apps.App
	dir    string
}

func (w *detectWorkload) setup(ctx context.Context) error {
	w.apps = apps.All()
	dir, err := opDir(w.out, "detect")
	if err != nil {
		return err
	}
	w.dir = dir
	return nil
}

// warmup runs one pass in Table-1 order.
func (w *detectWorkload) warmup(ctx context.Context) error {
	for i, app := range w.apps {
		if _, _, err := detectCampaign(ctx, app, w.dir, nil, i, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *detectWorkload) close() { os.RemoveAll(w.dir) }

func (w *detectWorkload) loop(ctx context.Context, d time.Duration, tr *Tracer, probe *speedProbe) *loopResult {
	res := newLoopResult(probe)
	ord := newOrder(w.seed, len(w.apps))
	start := time.Now()
	res.startWindows(start)
	first := tr.firstOp()
	for op := first; ctx.Err() == nil; op++ {
		i, fresh := ord.next()
		if fresh && op > first {
			// A window is one pass: every app once.
			res.tick(time.Now(), 0, 0)
			if time.Since(start) >= d && res.timed >= w.minOps {
				break
			}
		}
		app := w.apps[i]
		t0 := time.Now()
		out, _, err := detectCampaign(ctx, app, w.dir, tr, op, res)
		el := time.Since(t0)
		if err == nil {
			err = out.check(app.Name, w.refs[app.Name])
		}
		res.runs += out.runs
		res.op(app.Name, el, true, checkErr(op, err))
		res.tick(time.Now(), 1, math.MaxInt64) // the window closes at the pass end
	}
	res.elapsed = time.Since(start)
	return res
}

// detectCampaign runs one app's campaign the way fadetect -app X -log
// does and returns its output. With a tracer it records spans around
// every layer call and feeds per-layer samples into lr.
func detectCampaign(ctx context.Context, app apps.App, dir string, tr *Tracer, op int, lr *loopResult) (detectOutput, *inject.Result, error) {
	var out detectOutput
	root := tr.begin("bench.op", noParent, op)
	defer tr.end(root)
	logPath := filepath.Join(dir, app.Name+".json")
	journalPath := logPath + ".journal"

	sp := tr.begin("replog.CreateJournal", root, op)
	journal, err := replog.CreateJournal(journalPath, app.Name, app.Lang)
	tr.end(sp)
	if err != nil {
		return out, nil, err
	}
	opts := inject.Options{OnRun: journal.Append}
	campaign := tr.begin("inject.Campaign", root, op)
	if tr != nil {
		opts.OnRun = tracedOnRun(journal, tr, campaign, tr.now(), op, lr)
	}
	res, err := inject.Campaign(ctx, app.Build(), opts)
	tr.end(campaign)
	sp = tr.begin("replog.Close", root, op)
	cerr := journal.Close()
	if d := tr.end(sp); lr != nil && tr != nil {
		lr.sample("replog.close_ms", ms(d))
	}
	if err != nil {
		return out, nil, err
	}
	if cerr != nil {
		return out, nil, cerr
	}

	sp = tr.begin("detect.Classify", root, op)
	cls := detect.Classify(res, detect.Options{})
	if d := tr.end(sp); tr != nil && lr != nil {
		lr.sample("detect.classify_ms", ms(d))
	}
	sp = tr.begin("replog.Write", root, op)
	sha, err := writeLog(logPath, res)
	if d := tr.end(sp); tr != nil && lr != nil {
		lr.sample("replog.write_ms", ms(d))
	}
	if err != nil {
		return out, nil, err
	}
	if err := os.Remove(journalPath); err != nil {
		return out, nil, err
	}
	if tr != nil && lr != nil {
		c := res.SnapshotCache
		lr.count("objgraph.cache_hits", float64(c.Hits))
		lr.count("objgraph.cache_lookups", float64(c.Hits+c.Misses))
	}
	out = detectOutput{
		summary:    detect.Summarize(cls),
		injections: res.Injections,
		runs:       len(res.Runs),
		pure:       methodsOf(cls, detect.ClassPure),
		cond:       methodsOf(cls, detect.ClassConditional),
		logSHA:     sha,
	}
	return out, res, nil
}

// tracedOnRun wraps the journal append with spans and samples: the time
// from Campaign entry to the first callback (the clean run), and the gap
// between successive callbacks split by whether the run carries a
// non-atomic mark (such runs are replayed in capture mode).
func tracedOnRun(journal *replog.Journal, tr *Tracer, campaign span, campaignStart int64, op int, lr *loopResult) func(inject.Run) error {
	var prevEnd int64 = -1
	return func(r inject.Run) error {
		start := tr.now()
		if prevEnd < 0 {
			lr.sample("inject.clean_run_ms", float64(start-campaignStart)/1e6)
		} else {
			gap := float64(start-prevEnd) / 1e3
			if nonAtomic(r.Marks) {
				lr.sample("inject.replayed_run_us", gap)
				lr.count("inject.replayed_runs", 1)
			} else {
				lr.sample("inject.run_us", gap)
			}
		}
		lr.count("inject.runs", 1)
		cb := tr.begin("bench.OnRun", campaign, op)
		sp := tr.begin("replog.Append", cb, op)
		err := journal.Append(r)
		lr.sample("replog.append_us", us(tr.end(sp)))
		tr.end(cb)
		prevEnd = tr.now()
		return err
	}
}

func nonAtomic(marks []core.Mark) bool {
	for _, m := range marks {
		if !m.Atomic {
			return true
		}
	}
	return false
}
