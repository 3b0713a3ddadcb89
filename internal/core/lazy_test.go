package core

import (
	"reflect"
	"testing"

	"failatomic/internal/fault"
)

// overdraw always throws organically.
func (a *account) overdraw() {
	defer Enter(a, "account.overdraw")()
	fault.Throw(fault.IllegalState, "account.overdraw", "insufficient funds")
}

// TestCallExitProfile: the clean run records, per receiver-bearing call
// in entry order, the point counter at its exit — ExitUnwound for a call
// that unwound.
func TestCallExitProfile(t *testing.T) {
	withSession(t, Config{Inject: true, Detect: true}, func(s *Session) {
		s.RecordCallExits()
		a := &account{}
		a.Deposit(1) // Deposit: points 1–2, nested log: points 3–4
		catchPanic(a.overdraw)
		if want := []int{4, 4, ExitUnwound}; !reflect.DeepEqual(s.CallExits(), want) {
			t.Fatalf("CallExits = %v, want %v", s.CallExits(), want)
		}
	})
}

// TestLazySnapshotRule: calls that exit before the threshold are not
// snapshotted; a skipped call that unwinds is flagged as a misprediction
// and its exception propagates unchanged, with or without the
// serialization lock.
func TestLazySnapshotRule(t *testing.T) {
	for _, serialize := range []bool{false, true} {
		// Threshold 6 fires in overdraw's prologue: Deposit and log exited
		// at point 4, so neither is snapshotted.
		withSession(t, Config{Inject: true, InjectionPoint: 6, Detect: true, Serialize: serialize}, func(s *Session) {
			s.SnapshotLazily([]int{4, 4, ExitUnwound}, 6)
			a := &account{}
			a.Deposit(1)
			catchPanic(a.overdraw)
			if taken, skipped := s.SnapshotCounts(); taken != 0 || skipped != 2 {
				t.Fatalf("serialize=%v: taken=%d skipped=%d, want 0 and 2", serialize, taken, skipped)
			}
			if s.Mispredicted() {
				t.Fatalf("serialize=%v: no skipped call unwound, yet the run is flagged", serialize)
			}
		})
		// A profile claiming overdraw returned at point 4: it is skipped,
		// unwinds, and the run is flagged.
		withSession(t, Config{Inject: true, InjectionPoint: 7, Detect: true, Serialize: serialize}, func(s *Session) {
			s.SnapshotLazily([]int{4, 4, 4}, 7)
			a := &account{}
			a.Deposit(1)
			r := catchPanic(a.overdraw)
			if e, ok := r.(*fault.Exception); !ok || e.Kind != fault.IllegalState {
				t.Fatalf("serialize=%v: skipped call swallowed or changed its exception: %v", serialize, r)
			}
			if !s.Mispredicted() || len(s.Marks()) != 0 {
				t.Fatalf("serialize=%v: mispredicted=%v marks=%v, want a flagged run without marks",
					serialize, s.Mispredicted(), s.Marks())
			}
		})
	}
}

// TestLazySnapshotsIgnoredUnderExitFire: a deferred-cleanup fault
// strikes in a call's exit handler, not at a point, so an ExitFire
// session ignores the profile and snapshots every call.
func TestLazySnapshotsIgnoredUnderExitFire(t *testing.T) {
	never := func(string, int64) (fault.Kind, bool) { return "", false }
	withSession(t, Config{Inject: true, Detect: true, ExitFire: never}, func(s *Session) {
		s.SnapshotLazily([]int{4, 4}, 5)
		(&account{}).Deposit(1)
		if taken, skipped := s.SnapshotCounts(); taken != 2 || skipped != 0 {
			t.Fatalf("taken=%d skipped=%d, want 2 and 0", taken, skipped)
		}
	})
}
