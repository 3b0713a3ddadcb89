package harness

import (
	"context"
	"fmt"
	"time"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
)

// JournalTarget is the checkpoint.Journaled twin of BenchTarget, used for
// the undo-log ablation: instead of eagerly deep-copying the payload, the
// masked method records undo entries only for the words it writes, so
// rollback cost is O(bytes written) rather than O(object size) — the
// paper's copy-on-write suggestion (§6.2).
type JournalTarget struct {
	P    *Payload
	Sink uint64

	journal *checkpoint.Journal
}

var _ checkpoint.Journaled = (*JournalTarget)(nil)

// NewJournalTarget returns a journaled target with objectBytes of payload.
func NewJournalTarget(objectBytes int) *JournalTarget {
	data := make([]byte, objectBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return &JournalTarget{P: &Payload{Data: data}}
}

// BeginJournal implements checkpoint.Journaled.
func (t *JournalTarget) BeginJournal(j *checkpoint.Journal) *checkpoint.Journal {
	prev := t.journal
	t.journal = j
	return prev
}

// EndJournal implements checkpoint.Journaled.
func (t *JournalTarget) EndJournal(prev *checkpoint.Journal) { t.journal = prev }

// Work is the unwrapped method.
func (t *JournalTarget) Work() {
	defer core.Enter(t, "JournalTarget.Work")()
	t.compute()
}

// WorkMasked is the masked method; it journals the single word it writes.
func (t *JournalTarget) WorkMasked() {
	defer core.Enter(t, "JournalTarget.WorkMasked")()
	old := t.Sink
	t.journal.Record(8, func() { t.Sink = old })
	t.compute()
}

func (t *JournalTarget) compute() {
	x := t.Sink ^ 0x9e3779b97f4a7c15
	for i := 0; i < workIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t.Sink = x
}

// Figure5Journal runs the Figure 5 sweep with undo-log checkpointing; its
// overhead should stay flat across object sizes, in contrast to the
// deep-copy strategy. The ablation is always sequential: it exists to
// compare checkpoint costs, so cfg.Parallelism is ignored.
func Figure5Journal(ctx context.Context, cfg Figure5Config) ([]OverheadPoint, error) {
	if cfg.Calls <= 0 || cfg.Runs <= 0 {
		return nil, errBadConfig
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var points []OverheadPoint
	for _, size := range cfg.Sizes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("harness: sweep interrupted: %w", err)
		}
		base := measureJournal(size, cfg, 0)
		for _, frac := range cfg.FracsPct {
			ns := base
			if frac > 0 {
				ns = measureJournal(size, cfg, frac)
			}
			points = append(points, OverheadPoint{
				ObjectBytes:     size,
				MaskedPct:       frac,
				BaseNs:          base,
				MaskedNs:        ns,
				Overhead:        ns / base,
				CheckpointBytes: 8, // one journaled word per masked call
			})
		}
	}
	return points, nil
}

// measureJournal times one undo-log cell on a session bound to this
// goroutine and returns the median per-call nanoseconds.
func measureJournal(objectBytes int, cfg Figure5Config, fracPct float64) float64 {
	session := core.NewSession(core.Config{
		Mask:        true,
		MaskMethods: map[string]bool{"JournalTarget.WorkMasked": true},
		Strategy:    checkpoint.UndoLog(),
	})
	target := NewJournalTarget(objectBytes)
	masked := int(float64(cfg.Calls) * fracPct / 100)
	step := 0
	if masked > 0 {
		step = cfg.Calls / masked
	}

	times := make([]float64, 0, cfg.Runs)
	session.Bind(func() {
		for run := 0; run < cfg.Runs; run++ {
			start := time.Now()
			for i := 0; i < cfg.Calls; i++ {
				if step > 0 && i%step == 0 {
					target.WorkMasked()
				} else {
					target.Work()
				}
			}
			times = append(times, float64(time.Since(start).Nanoseconds())/float64(cfg.Calls))
		}
	})
	return median(times)
}
