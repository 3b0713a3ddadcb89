// Tests for multi-strategy (perturbed) jobs through the service: the
// strategy coordinate must survive admission, journaling, chunk shipping
// and rendering without costing byte-identity with local runs.
package serve_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"failatomic/internal/serve"
)

// perturbSpec is a multi-strategy adaptorChain campaign exercising every
// strategy family (site-relative, pair, epilogue, oblivious).
func perturbSpec() serve.JobSpec {
	return serve.JobSpec{App: "adaptorChain", Perturb: "nth=2,burst=32,defer,oblivious"}
}

// TestPerturbedJobByteIdentity: a multi-strategy campaign executed by the
// in-process worker pool stores the same report and log bytes a local
// fadetect run with the same -perturb options produces. LinkedList's
// oblivious runs crash with foreign panics, so its log carries recorded
// stacks, which must not depend on the entry point that ran the campaign.
func TestPerturbedJobByteIdentity(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 2, 16)
	ctx := context.Background()

	for _, spec := range []serve.JobSpec{
		perturbSpec(),
		{App: "LinkedList", Perturb: "nth=2,burst=32,defer,oblivious"},
	} {
		id, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("%s: job = %+v, want done", spec.App, st)
		}

		wantLog, wantReport, wantCode := localReference(t, spec)
		if st.ExitCode != wantCode {
			t.Fatalf("%s: exit code %d, want %d", spec.App, st.ExitCode, wantCode)
		}
		if !strings.Contains(wantReport, "perturbation models:") {
			t.Fatalf("%s: reference report carries no strategy section", spec.App)
		}
		if spec.App == "LinkedList" && !strings.Contains(string(wantLog), `"stack":`) {
			t.Fatal("LinkedList: reference log carries no foreign-panic stack")
		}
		gotReport, err := c.Report(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotReport) != wantReport {
			t.Errorf("%s: stored report differs from local render:\n--- server\n%s\n--- local\n%s", spec.App, gotReport, wantReport)
		}
		gotLog, err := c.Log(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotLog) != string(wantLog) {
			t.Errorf("%s: stored log differs from local replog.Write output", spec.App)
		}
	}
}

// TestPerturbAdmissionValidation: a spec whose Perturb fails the -perturb
// grammar is rejected at submit time, before a worker touches it.
func TestPerturbAdmissionValidation(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 4)
	ctx := context.Background()
	for _, bad := range []string{"warp", "nth=0", "nth,nth", "defer=2"} {
		_, err := c.Submit(ctx, serve.JobSpec{App: "HashedSet", Perturb: bad})
		if err == nil {
			t.Errorf("Perturb=%q admitted, want rejection", bad)
		}
	}
}

// TestRemoteWorkerRunsPerturbedJob: the distributed path — lease, execute,
// ship chunks keyed by strategy coordinate — stays byte-identical to a
// local multi-strategy run.
func TestRemoteWorkerRunsPerturbedJob(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
		WorkerPoll:      5 * time.Millisecond,
	})
	startWorker(t, url, "w1")
	ctx := context.Background()

	id, err := c.Submit(ctx, perturbSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("remote job: %+v", st)
	}

	wantLog, wantReport, wantCode := localReference(t, perturbSpec())
	if st.ExitCode != wantCode {
		t.Errorf("exit code %d, want %d", st.ExitCode, wantCode)
	}
	gotReport, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != wantReport {
		t.Errorf("remote report differs from local render:\n--- server\n%s\n--- local\n%s", gotReport, wantReport)
	}
	gotLog, err := c.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotLog) != string(wantLog) {
		t.Error("remote log differs from local replog.Write output")
	}
}
