package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// compareMain compares two sets of runs. Each set is a directory of run
// outputs named "<workload>.<anything>", whose last line is the result
// JSON; files of both sets are paired in name order.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("compare needs two directories: BASE HEAD")
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	metrics := append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...)
	fmt.Fprintf(w, "%-8s %-34s %-8s %12s %12s %12s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "unit", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "delta%", "verdict")
	for _, wl := range workloadNames {
		for _, m := range metrics {
			b, h := base.values(wl, m.Name), head.values(wl, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			hq1, hmed, hq3 := quartiles(h)
			fmt.Fprintf(w, "%-8s %-34s %-8s %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f %7.1f  %s\n",
				wl, m.Name, m.Unit, bq1, bmed, bq3, hq1, hmed, hq3, 100*relDelta(bmed, hmed),
				verdict(b, h, m.Better == "higher", m.Bound))
		}
	}
	return nil
}

// relDelta is (head - base) / base.
func relDelta(base, head float64) float64 {
	if base == 0 {
		return 0
	}
	return (head - base) / math.Abs(base)
}

// verdict applies the rules of a paired comparison: a metric whose
// run-to-run spread (quartile distance over median, on either side)
// exceeds its bound is unresolved unless every head run beats, or
// loses to, every base run; otherwise it is worse when the head median
// is worse by more than the bound, better when the head wins at least
// nine tenths of the pairs and its median beats the base median by more
// than the base's own spread, and within bound otherwise. Per-layer
// metrics carry no bound and get only better/worse/unchanged by the
// same pair and spread rules.
func verdict(base, head []float64, higher bool, bound float64) string {
	sign := 1.0
	if higher {
		sign = -1
	}
	// worse(x, y): x is worse than y.
	worse := func(x, y float64) bool { return sign*(x-y) > 0 }
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	spread := math.Max(relSpread(bq1, bmed, bq3), relSpread(hq1, hmed, hq3))
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && worse(b, h)
			allWorse = allWorse && worse(h, b)
		}
	}
	// Ties count for neither side.
	wins, losses, pairs := 0, 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		switch {
		case worse(base[i], head[i]):
			wins++
		case worse(head[i], base[i]):
			losses++
		}
	}
	gain := -sign * relDelta(bmed, hmed)
	switch {
	case bound > 0 && spread > bound && allBetter:
		return "better"
	case bound > 0 && spread > bound && allWorse:
		return "worse"
	case bound > 0 && spread > bound:
		return "unresolved"
	case bound > 0 && -gain > bound:
		return "worse"
	case float64(wins) >= 0.9*float64(pairs) && gain > relSpread(bq1, bmed, bq3):
		return "better"
	case bound == 0 && float64(losses) >= 0.9*float64(pairs) && -gain > relSpread(bq1, bmed, bq3):
		return "worse"
	case bound == 0:
		return "unchanged"
	}
	return "within bound"
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// runSet holds the result lines of one set of runs, by workload, in file
// name order.
type runSet map[string][]result

func (rs runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func readRuns(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	rs := make(runSet)
	for _, name := range names {
		wl, _, _ := strings.Cut(name, ".")
		if !validWorkload(wl) {
			continue
		}
		r, err := lastResult(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		rs[wl] = append(rs[wl], r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no run outputs named <workload>.*", dir)
	}
	return rs, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}
