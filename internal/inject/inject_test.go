package inject

import (
	"context"
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// stack is the synthetic benchmark shape from §6: Push is pure failure
// non-atomic (it bumps Count before calling a helper that may throw),
// PushSafe is failure atomic.
type stack struct {
	Items []int
	Count int
}

func (s *stack) Push(v int) {
	defer core.Enter(s, "stack.Push")()
	s.Count++
	s.ensure()
	s.Items = append(s.Items, v)
}

func (s *stack) PushSafe(v int) {
	defer core.Enter(s, "stack.PushSafe")()
	s.ensure()
	items := append(s.Items, v)
	s.Items = items
	s.Count++
}

func (s *stack) ensure() {
	defer core.Enter(s, "stack.ensure")()
	if s.Count > 1<<20 {
		fault.Throw(fault.CapacityExceeded, "stack.ensure", "too large")
	}
}

// driver wraps a stack; its Fill is conditional failure non-atomic: it
// would be atomic if stack.Push were atomic.
type driver struct {
	S    *stack
	Runs int
}

func (d *driver) Fill(n int) {
	defer core.Enter(d, "driver.Fill")()
	for i := 0; i < n; i++ {
		d.S.Push(i)
	}
	d.Runs++
}

func testProgram() *Program {
	reg := core.NewRegistry().
		Method("stack", "Push").
		Method("stack", "PushSafe").
		Method("stack", "ensure", fault.CapacityExceeded).
		Method("driver", "Fill")
	return &Program{
		Name:     "stack-test",
		Lang:     "java",
		Registry: reg,
		Run: func() {
			d := &driver{S: &stack{}}
			d.Fill(3)
			d.S.PushSafe(99)
		},
	}
}

func TestCampaignCountsPoints(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fill: 2 points. Push ×3: 2 each. ensure ×4: (1 declared + 2 runtime)
	// each. PushSafe: 2. Total = 2 + 6 + 12 + 2 = 22.
	if res.TotalPoints != 22 {
		t.Fatalf("TotalPoints = %d, want 22", res.TotalPoints)
	}
	if res.Injections != 22 {
		t.Fatalf("Injections = %d, want 22 (every point reachable)", res.Injections)
	}
	if len(res.Runs) != 23 { // clean run + one per point
		t.Fatalf("Runs = %d, want 23", len(res.Runs))
	}
	if res.Runs[0].InjectionPoint != 0 || res.Runs[0].Injected != nil {
		t.Fatal("first run must be the clean run")
	}
}

func TestCampaignCleanCalls(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"driver.Fill":    1,
		"stack.Push":     3,
		"stack.PushSafe": 1,
		"stack.ensure":   4,
	}
	for name, n := range want {
		if got := res.CleanCalls[name]; got != n {
			t.Errorf("CleanCalls[%s] = %d, want %d", name, got, n)
		}
	}
}

func TestCampaignEveryInjectedRunEscapes(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs[1:] {
		if run.Injected == nil {
			t.Fatalf("run at point %d did not inject", run.InjectionPoint)
		}
		if run.Escaped == nil {
			t.Fatalf("run at point %d: injected exception did not escape", run.InjectionPoint)
		}
		if run.Injected.Point != run.InjectionPoint {
			t.Fatalf("exception point %d != threshold %d", run.Injected.Point, run.InjectionPoint)
		}
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	a, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalPoints != b.TotalPoints || a.Injections != b.Injections {
		t.Fatal("campaigns over a deterministic program must agree")
	}
	for i := range a.Runs {
		am, bm := a.Runs[i].Marks, b.Runs[i].Marks
		if len(am) != len(bm) {
			t.Fatalf("run %d: mark counts differ", i)
		}
		for j := range am {
			if am[j].Method != bm[j].Method || am[j].Atomic != bm[j].Atomic {
				t.Fatalf("run %d mark %d differs: %+v vs %+v", i, j, am[j], bm[j])
			}
		}
	}
}

func TestCampaignRejectsNilProgram(t *testing.T) {
	if _, err := Campaign(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil program must be rejected")
	}
	if _, err := Campaign(context.Background(), &Program{Name: "x"}, Options{}); err == nil {
		t.Fatal("program without Run must be rejected")
	}
}

func TestCampaignMaxRuns(t *testing.T) {
	p := testProgram()
	if _, err := Campaign(context.Background(), p, Options{MaxRuns: 3}); err == nil {
		t.Fatal("campaign beyond MaxRuns must fail")
	}
}

func TestCampaignExceptionFree(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{
		ExceptionFree: map[string]bool{"stack.ensure": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ensure's 12 points disappear.
	if res.TotalPoints != 10 {
		t.Fatalf("TotalPoints = %d, want 10", res.TotalPoints)
	}
	for _, run := range res.Runs[1:] {
		if run.Injected != nil && run.Injected.Method == "stack.ensure" {
			t.Fatal("exception-free method must receive no injections")
		}
	}
}

func TestCampaignWithMasking(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{
		Mask: map[string]bool{"stack.Push": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With Push masked, no run may mark Push non-atomic.
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			if m.Method == "stack.Push" && !m.Atomic {
				t.Fatalf("masked Push marked non-atomic at point %d: %s",
					run.InjectionPoint, m.Diff)
			}
		}
	}
}

func TestCampaignLeavesNoSession(t *testing.T) {
	if _, err := Campaign(context.Background(), testProgram(), Options{}); err != nil {
		t.Fatal(err)
	}
	if core.Current() != nil {
		t.Fatal("campaign must unbind its sessions")
	}
}

func TestCampaignWarnsOnNondeterminism(t *testing.T) {
	// A workload whose behavior depends on mutable state outside the run
	// (here: a captured counter) makes later injection points unreachable;
	// the campaign must flag those runs instead of silently recording
	// nothing.
	calls := 0
	reg := core.NewRegistry().Method("stack", "Push").
		Method("stack", "PushSafe").
		Method("stack", "ensure", fault.CapacityExceeded)
	p := &Program{
		Name:     "flaky",
		Registry: reg,
		Run: func() {
			calls++
			s := &stack{}
			s.Push(1)
			if calls == 1 { // only the clean run does extra work
				s.Push(2)
				s.Push(3)
			}
		},
	}
	res, err := Campaign(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("nondeterministic workload must produce warnings")
	}
}

func TestCampaignNoWarningsWhenDeterministic(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", res.Warnings)
	}
}

func TestCampaignRepeatsScaleThePointSpace(t *testing.T) {
	base, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Campaign(context.Background(), testProgram(), Options{Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.TotalPoints != 3*base.TotalPoints {
		t.Fatalf("scaled points = %d, want %d", scaled.TotalPoints, 3*base.TotalPoints)
	}
	if scaled.Injections != scaled.TotalPoints {
		t.Fatalf("every scaled point must fire: %d/%d", scaled.Injections, scaled.TotalPoints)
	}
	if len(scaled.Warnings) != 0 {
		t.Fatalf("repeated runs stay deterministic: %v", scaled.Warnings)
	}
}
