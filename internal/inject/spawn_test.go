//go:build !failatomic_portable_gls

package inject

import (
	"context"
	"testing"
)

// TestSerializedCampaignFollowsSpawnedGoroutines: every run binds its
// session to the goroutine executing it, and in the default build a
// binding is inherited by the goroutines the workload spawns, so a
// serialized sequential campaign still observes wrapped calls made on a
// spawned goroutine. Under -tags failatomic_portable_gls bindings are
// keyed by goroutine id and such calls go unobserved.
func TestSerializedCampaignFollowsSpawnedGoroutines(t *testing.T) {
	p := testProgram()
	p.Run = func() {
		d := &driver{S: &stack{}}
		done := make(chan any)
		go func() {
			defer func() { done <- recover() }()
			d.Fill(3)
		}()
		if r := <-done; r != nil {
			panic(r)
		}
		d.S.PushSafe(99)
	}
	res, err := Campaign(context.Background(), p, Options{Serialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CleanCalls["stack.Push"]; got != 3 {
		t.Fatalf("clean run counted %d stack.Push calls on the spawned goroutine, want 3", got)
	}
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			if m.Method == "stack.Push" && !m.Atomic {
				return
			}
		}
	}
	t.Fatal("no run recorded stack.Push's non-atomic mark from the spawned goroutine")
}
