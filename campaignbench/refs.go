package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"failatomic"
	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/detect"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
	"failatomic/internal/replog"
)

// AppRef pins everything an operation's output is checked against for one
// Table-1 application.
type AppRef struct {
	Lang       string `json:"lang"`
	Classes    int    `json:"classes"`
	Methods    int    `json:"methods"`
	Injections int    `json:"injections"`
	// Runs is the number of injector runs one campaign streams to OnRun
	// (clean run included).
	Runs        int      `json:"runs"`
	Pure        []string `json:"pure"`
	Conditional []string `json:"conditional"`
	// LogSHA256 is the SHA-256 of the final injection log bytes
	// (replog.Write); ReportSHA256 that of the rendered report a faserve
	// job stores (cli.CampaignReport).
	LogSHA256    string `json:"log_sha256"`
	ReportSHA256 string `json:"report_sha256"`
	// Wrap is the §4.3 wrap set (mask.Build with the default policy);
	// MaskedCalls, Rollbacks and Skips are what one execution of the
	// workload under failatomic.Protect(Wrap) counts.
	Wrap        []string `json:"wrap"`
	MaskedCalls int64    `json:"masked_calls"`
	Rollbacks   int64    `json:"rollbacks"`
	Skips       int      `json:"skips"`
}

// Refs maps Table-1 application names to their pinned references.
type Refs map[string]AppRef

//go:embed refs.json
var pinnedRefs []byte

func loadRefs() (Refs, error) {
	var r Refs
	if err := json.Unmarshal(pinnedRefs, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	for _, app := range apps.All() {
		if _, ok := r[app.Name]; !ok {
			return nil, fmt.Errorf("refs.json: no reference for %s", app.Name)
		}
	}
	return r, nil
}

// methodsOf lists the methods of one class, sorted.
func methodsOf(cls *detect.Classification, want detect.MethodClass) []string {
	out := []string{}
	for name, rep := range cls.Methods {
		if rep.Classification == want {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// detectOutput is what one detect op produced, in the shape of AppRef.
type detectOutput struct {
	summary    detect.Summary
	injections int
	runs       int
	pure, cond []string
	logSHA     string
}

func (o detectOutput) check(name string, ref AppRef) error {
	s := o.summary
	switch {
	case s.Classes != ref.Classes || s.Methods != ref.Methods || o.injections != ref.Injections:
		return mismatchf("%s: Table-1 row %d classes/%d methods/%d injections, pinned %d/%d/%d",
			name, s.Classes, s.Methods, o.injections, ref.Classes, ref.Methods, ref.Injections)
	case o.runs != ref.Runs:
		return mismatchf("%s: %d runs, pinned %d", name, o.runs, ref.Runs)
	case !equalStrings(o.pure, ref.Pure):
		return mismatchf("%s: pure methods %v, pinned %v", name, o.pure, ref.Pure)
	case !equalStrings(o.cond, ref.Conditional):
		return mismatchf("%s: conditional methods %v, pinned %v", name, o.cond, ref.Conditional)
	case o.logSHA != ref.LogSHA256:
		return mismatchf("%s: log sha256 %s, pinned %s", name, o.logSHA, ref.LogSHA256)
	}
	return nil
}

// mismatch is an output that differs from its pinned reference: the op
// counts as failed, while any other error means the program could not
// run at all.
type mismatch struct{ error }

func mismatchf(format string, args ...any) error {
	return mismatch{fmt.Errorf(format, args...)}
}

func isMismatch(err error) bool {
	var m mismatch
	return errors.As(err, &m)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pin recomputes every reference from scratch through the same public
// calls the workloads make and writes refs.json to w. Run it only on a
// commit whose output is known good: the pinned values are what every
// later run is checked against.
func pin(ctx context.Context, w io.Writer, dir string) error {
	refs := make(Refs)
	for _, app := range apps.All() {
		out, res, err := detectCampaign(ctx, app, dir, nil, -1, nil)
		if err != nil {
			return err
		}
		cls := detect.Classify(res, detect.Options{})
		report, _, err := cli.CampaignReport(ctx, app, inject.Options{}, &harness.AppResult{
			App: app, Result: res, Classification: cls, Summary: detect.Summarize(cls),
		})
		if err != nil {
			return fmt.Errorf("%s: report: %w", app.Name, err)
		}
		plan := mask.Build(cls, nil, mask.Policy{})
		ref := AppRef{
			Lang: app.Lang, Classes: out.summary.Classes, Methods: out.summary.Methods,
			Injections: out.injections, Runs: out.runs,
			Pure: out.pure, Conditional: out.cond,
			LogSHA256: out.logSHA, ReportSHA256: sha256Hex([]byte(report)),
			Wrap: append([]string{}, plan.Wrap...),
		}
		if len(plan.Wrap) > 0 {
			p, err := failatomic.Protect(plan.Wrap, failatomic.ProtectOptions{})
			if err != nil {
				return err
			}
			app.Build().Run()
			ref.MaskedCalls, ref.Rollbacks, ref.Skips = p.MaskedCalls(), p.Rollbacks(), len(p.Skips())
			p.Close()
		}
		refs[app.Name] = ref
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(refs)
}

// writeLog writes the final injection log to path and returns its SHA-256.
func writeLog(path string, res *inject.Result) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := replog.Write(io.MultiWriter(f, h), res); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
