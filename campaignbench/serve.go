package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

// serveApps are the Table-1 apps whose local campaign takes at most about
// 25 ms, so a job's turnaround is dominated by the platform rather than
// by one long campaign: the six C++ apps and six small Java ones.
var serveApps = []string{
	"adaptorChain", "stdQ", "xml2Ctcp", "xml2Cviasc1", "xml2Cviasc2", "xml2xml1",
	"CircularList", "Dynarray", "HashedSet", "LLMap", "LinkedBuffer", "LinkedList",
}

// serveClients is the number of closed-loop clients, one job in flight
// each; it matches the two CPUs the load is sized for.
const serveClients = 2

// serveWorkload runs an in-process faserve (serve.New + Handler over
// loopback) and drives it with serve/client: Submit → Follow → Log and
// Report. One op is one job.
type serveWorkload struct {
	refs Refs
	out  string
	seed int64

	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	c      *client.Client
}

func (w *serveWorkload) setup(ctx context.Context) error {
	dir, err := opDir(w.out, "serve")
	if err != nil {
		return err
	}
	w.dir = dir
	srv, err := serve.New(serve.Config{DataDir: dir, Workers: serveClients})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.c = client.New(w.base)
	return nil
}

// warmup runs one job per app.
func (w *serveWorkload) warmup(ctx context.Context) error {
	for i, name := range serveApps {
		if _, err := w.job(ctx, name, nil, i, nil); err != nil && !isMismatch(err) {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if w.hs != nil {
		w.hs.Shutdown(ctx)
		<-w.served
	}
	if w.srv != nil {
		w.srv.Drain(ctx)
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// jobTimes are the client-side timestamps of one job, in tracer-clock
// nanoseconds: admission acknowledged, state:running seen, last run
// event seen, end event seen.
type jobTimes struct {
	acked, running, lastRun, end int64
	runs                         int
}

// job submits one detect job and follows it to the end, then fetches
// and checks its log and report.
func (w *serveWorkload) job(ctx context.Context, name string, tr *Tracer, op int, lr *loopResult) (int, error) {
	clock := tr
	if clock == nil {
		clock = newTracer()
	}
	root := tr.begin("bench.op", noParent, op)
	defer tr.end(root)
	sp := tr.begin("serve.Submit", root, op)
	id, err := w.c.Submit(ctx, serve.JobSpec{App: name})
	d := tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: submit: %w", name, err)
	}
	jt := jobTimes{acked: clock.now()}
	follow := tr.begin("serve.Follow", root, op)
	end, err := w.c.Follow(ctx, id, func(e serve.Event) error {
		t := clock.now()
		switch {
		case e.Type == "state" && e.State == serve.StateRunning:
			jt.running = t
		case e.Type == "run":
			jt.lastRun = t
			jt.runs++
		case e.Type == serve.EventEnd:
			jt.end = t
		}
		return nil
	})
	tr.end(follow)
	if err != nil {
		return jt.runs, fmt.Errorf("%s: follow %s: %w", name, id, err)
	}
	if end.State != serve.StateDone {
		return jt.runs, fmt.Errorf("%s: job %s ended %s: %s", name, id, end.State, end.Error)
	}
	sp = tr.begin("serve.Fetch", root, op)
	log, lerr := w.c.Log(ctx, id)
	report, rerr := w.c.Report(ctx, id)
	fetch := tr.end(sp)
	if err := errors.Join(lerr, rerr); err != nil {
		return jt.runs, fmt.Errorf("%s: fetch %s: %w", name, id, err)
	}
	ref := w.refs[name]
	if got := sha256Hex(log); got != ref.LogSHA256 {
		return jt.runs, mismatchf("%s: job %s log sha256 %s differs from the local log %s", name, id, got, ref.LogSHA256)
	}
	if got := sha256Hex(report); got != ref.ReportSHA256 {
		return jt.runs, mismatchf("%s: job %s report sha256 %s, pinned %s", name, id, got, ref.ReportSHA256)
	}
	if jt.runs != ref.Runs {
		return jt.runs, mismatchf("%s: job %s streamed %d run events, pinned %d runs", name, id, jt.runs, ref.Runs)
	}
	if tr != nil && lr != nil {
		lr.sample("serve.submit_ms", ms(d))
		lr.sample("sched.queue_wait_ms", float64(jt.running-jt.acked)/1e6)
		lr.sample("serve.run_ms", float64(jt.lastRun-jt.running)/1e6)
		lr.sample("serve.finalize_ms", float64(jt.end-jt.lastRun)/1e6)
		lr.sample("serve.fetch_ms", ms(fetch))
		tr.add("sched.queue_wait", jt.acked, jt.running, follow.idx, op)
		tr.add("serve.run", jt.running, jt.lastRun, follow.idx, op)
		tr.add("serve.finalize", jt.lastRun, jt.end, follow.idx, op)
	}
	return jt.runs, nil
}

func (w *serveWorkload) loop(ctx context.Context, d time.Duration, tr *Tracer, probe *speedProbe) *loopResult {
	res := newLoopResult(probe)
	ord := newOrder(w.seed, len(serveApps))
	var mu sync.Mutex
	nextOp := tr.firstOp()
	// take hands out the next input in seed order; which client runs it
	// depends on timing, the sequence of inputs does not.
	take := func() (int, string) {
		mu.Lock()
		defer mu.Unlock()
		i, _ := ord.next()
		nextOp++
		return nextOp - 1, serveApps[i]
	}
	start := time.Now()
	res.startWindows(start)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				op, name := take()
				t0 := time.Now()
				runs, err := w.job(ctx, name, tr, op, res)
				el := time.Since(t0)
				res.mu.Lock()
				res.runs += runs
				res.mu.Unlock()
				res.op(name, el, true, checkErr(op, err))
				res.tick(time.Now(), 1, rateWindow)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if tr != nil {
		m, err := w.scrape(ctx)
		if err != nil {
			res.op("metrics", 0, false, err)
		}
		res.sample("serve.jobs_drifted_total", float64(m["jobs_drifted_total"]))
	}
	return res
}

// scrape reads the server's /metrics counters.
func (w *serveWorkload) scrape(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}
