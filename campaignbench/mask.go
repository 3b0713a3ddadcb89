package main

import (
	"context"
	"fmt"
	"time"

	"failatomic"
	"failatomic/internal/apps"
	"failatomic/internal/detect"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
)

// maskApp is one application of the mask workload: its program and the
// §4.3 wrap set derived at set-up.
type maskApp struct {
	name string
	prog *inject.Program
	wrap []string
	ref  AppRef
}

// maskWorkload runs each app's workload under failatomic.Protect(plan.Wrap)
// and, interleaved in the same loop, with no session installed (the
// baseline). One op is one masked execution.
type maskWorkload struct {
	refs Refs
	seed int64
	apps []maskApp
}

// setup classifies every app (inject.Campaign + detect.Classify), builds
// the wrap plan with mask.Build, and verifies it the way fadetect does:
// a campaign with the wrap set masked must classify every wrapped method
// atomic. Every app stays in the loop, so a wrap set that differs from
// the pinned one fails that app's masked ops.
func (w *maskWorkload) setup(ctx context.Context) error {
	w.apps = nil
	for _, app := range apps.All() {
		ref := w.refs[app.Name]
		res, err := inject.Campaign(ctx, app.Build(), inject.Options{})
		if err != nil {
			return fmt.Errorf("%s: classification campaign: %w", app.Name, err)
		}
		cls := detect.Classify(res, detect.Options{})
		plan := mask.Build(cls, nil, mask.Policy{})
		masked, err := inject.Campaign(ctx, app.Build(), inject.Options{Mask: plan.WrapSet()})
		if err != nil {
			return fmt.Errorf("%s: masked verification campaign: %w", app.Name, err)
		}
		mcls := detect.Classify(masked, detect.Options{})
		for _, m := range plan.Wrap {
			if rep := mcls.Methods[m]; rep == nil || rep.Classification != detect.ClassAtomic {
				return fmt.Errorf("%s: wrapped method %s is not failure atomic under masking", app.Name, m)
			}
		}
		w.apps = append(w.apps, maskApp{name: app.Name, prog: app.Build(), wrap: plan.Wrap, ref: ref})
	}
	return nil
}

// warmup runs five executions of each kind per app.
func (w *maskWorkload) warmup(ctx context.Context) error {
	for i := 0; i < 5; i++ {
		for _, a := range w.apps {
			if _, err := a.unmasked(); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if _, _, err := a.masked(nil, noParent, -1); err != nil && !isMismatch(err) {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (w *maskWorkload) close() {}

// unmasked runs the workload once with no session installed.
func (a *maskApp) unmasked() (d time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: unmasked execution escaped: %v", a.name, r)
		}
	}()
	t0 := time.Now()
	a.prog.Run()
	return time.Since(t0), nil
}

// maskCounts is what one masked execution counted.
type maskCounts struct {
	calls, rollbacks int64
	skips            int
	// protect is the traced time spent in Protect plus Close.
	protect time.Duration
}

// masked runs the workload once under failatomic.Protect(wrap) and checks
// the masked-call, rollback and skip counts against the references. A
// wrap set that differs from the pinned one fails the op without running
// it. The returned duration covers Protect, the execution and Close.
func (a *maskApp) masked(tr *Tracer, parent span, op int) (d time.Duration, c maskCounts, err error) {
	t0 := time.Now()
	if !equalStrings(a.wrap, a.ref.Wrap) {
		return time.Since(t0), c, mismatchf("%s: wrap set %v, pinned %v", a.name, a.wrap, a.ref.Wrap)
	}
	sp := tr.begin("core.Protect", parent, op)
	p, err := failatomic.Protect(a.wrap, failatomic.ProtectOptions{})
	c.protect = tr.end(sp)
	if err != nil {
		return 0, c, fmt.Errorf("%s: %w", a.name, err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: masked execution escaped: %v", a.name, r)
			}
		}()
		sp := tr.begin("apps.Run", parent, op)
		defer tr.end(sp)
		a.prog.Run()
	}()
	c.calls, c.rollbacks, c.skips = p.MaskedCalls(), p.Rollbacks(), len(p.Skips())
	sp = tr.begin("core.Close", parent, op)
	p.Close()
	c.protect += tr.end(sp)
	d = time.Since(t0)
	switch {
	case err != nil:
	case c.calls != a.ref.MaskedCalls || c.rollbacks != a.ref.Rollbacks || c.skips != a.ref.Skips:
		err = mismatchf("%s: masked calls/rollbacks/skips %d/%d/%d, pinned %d/%d/%d",
			a.name, c.calls, c.rollbacks, c.skips, a.ref.MaskedCalls, a.ref.Rollbacks, a.ref.Skips)
	}
	return d, c, err
}

func (w *maskWorkload) loop(ctx context.Context, d time.Duration, tr *Tracer, probe *speedProbe) *loopResult {
	res := newLoopResult(probe)
	// Inputs are (app, kind) pairs: even indexes masked, odd unmasked.
	ord := newOrder(w.seed, 2*len(w.apps))
	start := time.Now()
	res.startWindows(start)
	for op := tr.firstOp(); time.Since(start) < d; op++ {
		if ctx.Err() != nil {
			break
		}
		i, _ := ord.next()
		a := &w.apps[i/2]
		root := tr.begin("bench.op", noParent, op)
		if i%2 == 1 {
			sp := tr.begin("apps.Run", root, op)
			el, err := a.unmasked()
			tr.end(sp)
			tr.end(root)
			res.sample(plainKey+a.name, us(el))
			res.op(a.name, el, false, checkErr(op, err))
			continue
		}
		el, c, err := a.masked(tr, root, op)
		tr.end(root)
		res.op(a.name, el, true, checkErr(op, err))
		res.tick(time.Now(), 1, rateWindow)
		res.count("checkpoint.masked_calls", float64(c.calls))
		res.count("checkpoint.rollbacks", float64(c.rollbacks))
		res.count("checkpoint.skips", float64(c.skips))
		if tr != nil {
			res.sample("core.protect_us", us(c.protect))
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// plainKey prefixes the per-app samples of unmasked execution time (us).
const plainKey = "apps.run_us."

// maskOverhead returns Figure 5's quantity for a mask loop — the
// geometric mean over apps of the median masked time over the median
// unmasked time per execution — and every unmasked time it saw (us).
func maskOverhead(r *loopResult) (float64, []float64) {
	var ratios, plain []float64
	for app, masked := range r.byInput {
		p := r.samples[plainKey+app]
		plain = append(plain, p...)
		// byInput stays in op order: latency pairs it with winOf.
		if m, u := 1000*quantile(append([]float64(nil), masked...), 0.5), quantile(p, 0.5); m > 0 && u > 0 {
			ratios = append(ratios, m/u)
		}
	}
	return geomean(ratios), plain
}
