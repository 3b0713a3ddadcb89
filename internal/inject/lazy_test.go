package inject_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/core"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
)

// campaignOutput is what a campaign leaves behind for a user: the
// injection log fadetect -log writes and the report fadetect prints.
type campaignOutput struct {
	log, report string
	res         *inject.Result
}

func runCampaign(t *testing.T, app apps.App, opts inject.Options, withReport bool) campaignOutput {
	t.Helper()
	ctx := context.Background()
	ar, err := harness.RunApp(ctx, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := replog.Write(&log, ar.Result); err != nil {
		t.Fatal(err)
	}
	out := campaignOutput{log: log.String(), res: ar.Result}
	if withReport {
		if out.report, _, err = cli.CampaignReport(ctx, app, opts, ar); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// lazyAndEverything runs the same campaign with the lazy-snapshot rule and
// with every call snapshotted, and asserts byte-identical logs and
// reports.
func lazyAndEverything(t *testing.T, app apps.App, opts inject.Options, withReport bool) (lazy, full campaignOutput) {
	t.Helper()
	// One call site for both campaigns: foreign-panic stacks in the logs
	// reach up into this function, so its line numbers must agree.
	var outs [2]campaignOutput
	for i := range outs {
		restore := func() {}
		if i == 1 {
			restore = inject.SnapshotEverything()
		}
		outs[i] = runCampaign(t, app, opts, withReport)
		restore()
	}
	lazy, full = outs[0], outs[1]
	if lazy.log != full.log {
		t.Errorf("%s: lazy log differs from snapshot-everything log", app.Name)
	}
	if lazy.report != full.report {
		t.Errorf("%s: lazy report differs from snapshot-everything report:\n%s\nvs\n%s", app.Name, lazy.report, full.report)
	}
	if full.res.Snapshots.Skipped != 0 || full.res.Snapshots.Reruns != 0 {
		t.Errorf("%s: snapshot-everything campaign skipped snapshots: %+v", app.Name, full.res.Snapshots)
	}
	return lazy, full
}

// TestLazySnapshotsMatchSnapshotEverything pins the lazy-snapshot rule
// as invisible in output: every Table-1 app, under both snapshot engines
// and every execution path (sequential, parallel, supervised — all on
// scoped sessions),
// produces the same log and report as a campaign that snapshots every
// call — with no misprediction rerun and far fewer snapshots.
func TestLazySnapshotsMatchSnapshotEverything(t *testing.T) {
	modes := []struct {
		name string
		opts inject.Options
	}{
		{"scoped", inject.Options{}},
		{"parallel", inject.Options{Parallelism: 2}},
		{"supervised", inject.Options{MaxRetries: 1}},
	}
	for _, engine := range []core.SnapshotMode{core.SnapshotFingerprint, core.SnapshotCapture} {
		for _, mode := range modes {
			t.Run(engine.String()+"/"+mode.name, func(t *testing.T) {
				opts := mode.opts
				opts.Snapshot = engine
				// Reports re-run a masked campaign; one path covers them.
				withReport := mode.name == "scoped"
				for _, app := range apps.All() {
					lazy, full := lazyAndEverything(t, app, opts, withReport)
					s := lazy.res.Snapshots
					if s.Reruns != 0 {
						t.Errorf("%s: %d misprediction reruns on a deterministic app", app.Name, s.Reruns)
					}
					if s.Skipped == 0 || s.Taken >= full.res.Snapshots.Taken {
						t.Errorf("%s: lazy campaign took %d snapshots, skipped %d; snapshot-everything took %d",
							app.Name, s.Taken, s.Skipped, full.res.Snapshots.Taken)
					}
					if s.ReplayMismatches != 0 {
						t.Errorf("%s: %d replay verdict mismatches on a deterministic app", app.Name, s.ReplayMismatches)
					}
					if engine == core.SnapshotCapture && s.Replays != 0 {
						t.Errorf("%s: capture campaign replayed %d runs", app.Name, s.Replays)
					}
				}
			})
		}
	}
}

// TestLazySnapshotsMatchUnderPerturbations covers the threshold-driven
// oblivious model (lazy) beside the trigger-driven and deferred models
// (which snapshot every call) on the apps whose perturbation logs carry
// organic and foreign escapes.
func TestLazySnapshotsMatchUnderPerturbations(t *testing.T) {
	perts, err := inject.ParsePerturbations("nth=2,burst=32,defer,oblivious")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"adaptorChain", "LinkedList", "RBTree"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		lazy, _ := lazyAndEverything(t, app, inject.Options{Perturbations: perts}, true)
		if lazy.res.Snapshots.Reruns != 0 {
			t.Errorf("%s: %d misprediction reruns", name, lazy.res.Snapshots.Reruns)
		}
	}
}

// TestJournalAndLogIgnoreSnapshotTelemetry: the snapshot counters are
// telemetry, never serialized — a lazy and a snapshot-everything campaign
// report different counters yet write byte-identical journals and logs,
// and rewriting a log after scribbling over the counters changes nothing.
func TestJournalAndLogIgnoreSnapshotTelemetry(t *testing.T) {
	app, _ := apps.ByName("LinkedList")
	dir := t.TempDir()
	run := func(name string) (*inject.Result, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		j, err := replog.CreateJournal(path, app.Name, app.Lang)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{OnRun: j.Append})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	lazy, lazyJournal := run("lazy.journal")
	restore := inject.SnapshotEverything()
	full, fullJournal := run("full.journal")
	restore()
	if lazy.Snapshots == full.Snapshots {
		t.Fatalf("counters agree (%+v); the test no longer compares different telemetry", lazy.Snapshots)
	}
	if !bytes.Equal(lazyJournal, fullJournal) {
		t.Fatal("journals differ between lazy and snapshot-everything campaigns")
	}
	write := func(res *inject.Result) string {
		var b bytes.Buffer
		if err := replog.Write(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	log := write(lazy)
	if log != write(full) {
		t.Fatal("logs differ between lazy and snapshot-everything campaigns")
	}
	lazy.Snapshots = inject.SnapshotStats{Taken: 1, Skipped: 2, Reruns: 3, Replays: 4, ReplayMismatches: 5}
	lazy.SnapshotCache = core.SnapshotCacheStats{Hits: 6, Misses: 7, Bytes: 8}
	if write(lazy) != log {
		t.Fatal("log bytes depend on the telemetry counters")
	}
}
