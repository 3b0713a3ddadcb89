package inject_test

import (
	"context"
	"strings"
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/inject"
)

// box is a workload whose failure-oblivious runs crash: when an injected
// fault in find is swallowed at Get's wrapper, Get returns nil and the
// caller dereferences it inside Touch.
type box struct {
	Next *box
	V    int
}

func (b *box) find() *box {
	defer core.Enter(b, "box.find")()
	return b.Next
}

func (b *box) Get() *box {
	defer core.Enter(b, "box.Get")()
	return b.find()
}

func (b *box) Touch() {
	defer core.Enter(b, "box.Touch")()
	b.V++
}

// TestForeignStackStartsAtWorkload: a foreign panic unwinds through the
// session's exit handlers, which re-panic it, yet the recorded stack
// starts at the workload's crash site, ends at the program's Run closure,
// and carries no frame of the session runtime, the campaign driver or
// whatever called the campaign.
func TestForeignStackStartsAtWorkload(t *testing.T) {
	reg := core.NewRegistry().Method("box", "find").Method("box", "Get").Method("box", "Touch")
	p := &inject.Program{
		Name:     "box",
		Registry: reg,
		Run: func() {
			root := &box{Next: &box{}}
			root.Get().Touch()
		},
	}
	res, err := inject.Campaign(context.Background(), p, inject.Options{
		Perturbations: []inject.Perturbation{inject.Oblivious{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stacks []string
	for _, run := range res.Runs {
		if run.Strategy != "oblivious" || run.Escaped == nil || !run.Escaped.Foreign {
			continue
		}
		stacks = append(stacks, run.Escaped.Stack)
		for _, m := range run.Marks {
			if m.Exception != nil && m.Exception.Foreign {
				stacks = append(stacks, m.Exception.Stack)
			}
		}
	}
	if len(stacks) == 0 {
		t.Fatal("no oblivious run crashed; the workload no longer exercises the re-panic path")
	}
	for _, st := range stacks {
		if !strings.HasPrefix(st, "failatomic/internal/inject_test.(*box).Touch (stack_test.go:") {
			t.Errorf("stack does not start at the crash site: %q", st)
		}
		frames := strings.Split(st, " <- ")
		if last := frames[len(frames)-1]; !strings.HasPrefix(last, "failatomic/internal/inject_test.TestForeignStackStartsAtWorkload.func1 (stack_test.go:") {
			t.Errorf("stack does not end at the program's Run closure: %q", st)
		}
		for _, tool := range []string{"failatomic/internal/core.", "failatomic/internal/inject.", " panic (", "runtime.", "testing.", "harness."} {
			if strings.Contains(st, tool) {
				t.Errorf("stack carries %q frames: %q", tool, st)
			}
		}
	}
}
