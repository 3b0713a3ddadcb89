package inject

import (
	"context"
	"reflect"
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// gadget.Warm returns normally in the clean run but throws organically in
// every later execution, which the workload catches — the lazy-snapshot
// rule's profile mispredicts it in the runs whose threshold lies past it.
type gadget struct{ N int }

func (g *gadget) Warm(fail bool) {
	defer core.Enter(g, "gadget.Warm")()
	g.N++
	if fail {
		fault.Throw(fault.IllegalState, "gadget.Warm", "cold start")
	}
}

func (g *gadget) Use() {
	defer core.Enter(g, "gadget.Use")()
	g.N++
}

// warmProgram: Warm holds points 1–3 (one declared kind plus the two
// runtime kinds), Use points 4–5.
func warmProgram() *Program {
	execs := 0
	return &Program{
		Name:     "warm",
		Registry: core.NewRegistry().Method("gadget", "Warm", fault.IllegalState).Method("gadget", "Use"),
		Run: func() {
			execs++
			g := &gadget{}
			func() {
				defer func() {
					if r := recover(); r != nil {
						if e, ok := r.(*fault.Exception); !ok || e.Injected {
							panic(r)
						}
					}
				}()
				g.Warm(execs > 1)
			}()
			g.Use()
		},
	}
}

// TestMispredictedRunIsReexecutedInFull: a run whose skipped call unwinds
// is executed again with every call snapshotted; the recorded run equals
// the snapshot-everything run, Warm's mark included, and the misprediction
// is counted once.
func TestMispredictedRunIsReexecutedInFull(t *testing.T) {
	for _, mode := range []core.SnapshotMode{core.SnapshotFingerprint, core.SnapshotCapture} {
		opts := Options{Snapshot: mode}
		p := warmProgram()
		clean, err := cleanRun(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		exps := planExperiments(clean.profile(p), opts)
		opts.exits = clean.exits
		ex := exps[4] // threshold 5: Use's first point, past Warm's exit
		if ex.point != 5 || ex.firstFire != 5 || opts.exits == nil {
			t.Fatalf("experiment %s carries no lazy profile", ex.Key)
		}
		lazy := execute(p, ex, opts)
		snapshotEverything.Store(true)
		full := execute(p, ex, opts)
		snapshotEverything.Store(false)
		if !reflect.DeepEqual(lazy.run, full.run) {
			t.Fatalf("%s: mispredicted run differs from snapshot-everything:\n got %+v\nwant %+v", mode, lazy.run, full.run)
		}
		if len(lazy.run.Marks) == 0 || lazy.run.Marks[0].Method != "gadget.Warm" {
			t.Fatalf("%s: rerun lost Warm's mark: %+v", mode, lazy.run.Marks)
		}
		if lazy.stats.Reruns != 1 || full.stats.Reruns != 0 {
			t.Fatalf("%s: reruns lazy=%d full=%d, want 1 and 0", mode, lazy.stats.Reruns, full.stats.Reruns)
		}
	}
}

// TestMispredictionsKeepCampaignsIdentical: over the whole campaign, the
// runs whose threshold lies past Warm (points 4 and 5) mispredict; the
// campaign still equals the snapshot-everything one.
func TestMispredictionsKeepCampaignsIdentical(t *testing.T) {
	lazy, err := Campaign(context.Background(), warmProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshotEverything.Store(true)
	full, err := Campaign(context.Background(), warmProgram(), Options{})
	snapshotEverything.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lazy.Runs, full.Runs) || !reflect.DeepEqual(lazy.Warnings, full.Warnings) {
		t.Fatalf("lazy campaign differs from snapshot-everything:\n got %+v\nwant %+v", lazy.Runs, full.Runs)
	}
	if got := lazy.Snapshots.Reruns; got != 2 {
		t.Fatalf("Reruns = %d, want 2 (thresholds 4 and 5)", got)
	}
}

// toggler mutates before its throwing helper only on even executions, so
// a fingerprint run and its capture replay — consecutive executions —
// disagree on Step's verdict.
type toggler struct{ N int }

func (x *toggler) Step(mutate bool) {
	defer core.Enter(x, "toggler.Step")()
	if mutate {
		x.N++
	}
	x.helper()
}

func (x *toggler) helper() { defer core.Enter(x, "toggler.helper")() }

// TestReplayVerdictMismatchIsCounted: a replay that does not reproduce the
// fingerprint run's verdicts is still adopted wholesale (output matches an
// all-capture campaign of the replayed executions) but is counted.
func TestReplayVerdictMismatchIsCounted(t *testing.T) {
	execs := 0
	p := &Program{
		Name:     "toggle",
		Registry: core.NewRegistry().Method("toggler", "Step").Method("toggler", "helper"),
		Run: func() {
			execs++
			(&toggler{}).Step(execs%2 == 0)
		},
	}
	res, err := Campaign(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Snapshots
	if s.Replays != 2 || s.ReplayMismatches != 2 {
		t.Fatalf("Replays=%d ReplayMismatches=%d, want 2 and 2", s.Replays, s.ReplayMismatches)
	}
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			if !m.Atomic {
				t.Fatalf("point %d: kept the fingerprint run's verdict instead of the replay's: %+v", run.InjectionPoint, m)
			}
		}
	}

	det, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Snapshots.Replays == 0 || det.Snapshots.ReplayMismatches != 0 {
		t.Fatalf("deterministic program: %+v, want replays and no mismatches", det.Snapshots)
	}
}
