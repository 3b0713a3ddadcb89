package inject

import (
	"context"
	"reflect"
	"testing"

	"failatomic/internal/core"
)

// TestFingerprintCampaignMatchesCapture is the byte-identity contract of
// the fingerprint-first engine: a campaign under the default fingerprint
// snapshots — with its deterministic diff-recovery replays — produces a
// Result deeply equal to an all-capture campaign, Mark.Diff strings
// included.
func TestFingerprintCampaignMatchesCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "sequential", 4: "parallel"}[workers]
		t.Run(name, func(t *testing.T) {
			fp, err := Campaign(context.Background(), testProgram(), Options{
				Parallelism: workers,
				Snapshot:    core.SnapshotFingerprint,
			})
			if err != nil {
				t.Fatal(err)
			}
			cap, err := Campaign(context.Background(), testProgram(), Options{
				Parallelism: workers,
				Snapshot:    core.SnapshotCapture,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fp.Runs, cap.Runs) {
				t.Fatalf("fingerprint campaign runs differ from capture:\n got %+v\nwant %+v", fp.Runs, cap.Runs)
			}
			if fp.Injections != cap.Injections || fp.TotalPoints != cap.TotalPoints {
				t.Fatalf("campaign totals differ: fp=%d/%d capture=%d/%d",
					fp.Injections, fp.TotalPoints, cap.Injections, cap.TotalPoints)
			}
			if !reflect.DeepEqual(fp.Warnings, cap.Warnings) {
				t.Fatalf("warnings differ: %v vs %v", fp.Warnings, cap.Warnings)
			}
		})
	}
}

// TestFingerprintNoCacheCampaignIdentity: disabling the incremental
// subgraph cache is invisible in campaign output — runs, totals and
// warnings match both the cached fingerprint engine and capture, and the
// nocache engine reports no cache traffic while the default one does.
func TestFingerprintNoCacheCampaignIdentity(t *testing.T) {
	run := func(mode core.SnapshotMode) *Result {
		t.Helper()
		res, err := Campaign(context.Background(), testProgram(), Options{Snapshot: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached := run(core.SnapshotFingerprint)
	nocache := run(core.SnapshotFingerprintNoCache)
	cap := run(core.SnapshotCapture)
	if !reflect.DeepEqual(nocache.Runs, cached.Runs) || !reflect.DeepEqual(nocache.Runs, cap.Runs) {
		t.Fatal("fingerprint-nocache campaign runs differ from cached/capture")
	}
	if !reflect.DeepEqual(nocache.Warnings, cached.Warnings) {
		t.Fatalf("warnings differ: %v vs %v", nocache.Warnings, cached.Warnings)
	}
	if nocache.SnapshotCache != (core.SnapshotCacheStats{}) {
		t.Errorf("nocache campaign reported cache stats %+v, want zeros", nocache.SnapshotCache)
	}
	if cached.SnapshotCache.Misses == 0 {
		t.Errorf("cached campaign reported no cache traffic: %+v", cached.SnapshotCache)
	}
	// The identity must hold while the lazy rule skips snapshots, i.e.
	// while the cache sees generation bumps from calls it never hashed.
	if cached.Snapshots.Skipped == 0 || nocache.Snapshots.Skipped == 0 {
		t.Errorf("no snapshots skipped (cached %+v, nocache %+v)", cached.Snapshots, nocache.Snapshots)
	}
}

// TestFingerprintRecoveryFillsEveryDiff asserts the recovery invariant
// directly: after a default-mode campaign, no recorded mark is non-atomic
// with an empty diff (the recovery pass replaced every such run).
func TestFingerprintRecoveryFillsEveryDiff(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawNonAtomic := false
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			if !m.Atomic {
				sawNonAtomic = true
				if m.Diff == "" {
					t.Fatalf("point %d: non-atomic mark %q has no diff (recovery missed it)", run.InjectionPoint, m.Method)
				}
			}
		}
	}
	if !sawNonAtomic {
		t.Fatal("test program recorded no non-atomic marks; the recovery path was not exercised")
	}
}

// TestSupervisedFingerprintMatchesCapture extends the identity through
// the watchdog/retry layer (scoped sessions, fresh goroutine per run).
func TestSupervisedFingerprintMatchesCapture(t *testing.T) {
	fp, err := Campaign(context.Background(), testProgram(), Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := Campaign(context.Background(), testProgram(), Options{MaxRetries: 1, Snapshot: core.SnapshotCapture})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp.Runs, cap.Runs) {
		t.Fatalf("supervised fingerprint runs differ from capture:\n got %+v\nwant %+v", fp.Runs, cap.Runs)
	}
}
