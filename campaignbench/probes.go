package main

import (
	"fmt"
	"strings"
	"time"

	"failatomic/internal/checkpoint"
	"failatomic/internal/collections"
	"failatomic/internal/objgraph"
	"failatomic/internal/xmlite"
)

// probeSize is the element count of each probe graph — the size of the
// containers the Table-1 workloads build.
const probeSize = 32

// probeShapes builds app-shaped object graphs with the public
// constructors of the substrates the Table-1 apps run on. With no session
// installed the constructors' prologues are no-ops.
func probeShapes() []struct {
	name string
	root any
} {
	list := collections.NewLinkedList(nil)
	tree := collections.NewRBTree(collections.DefaultCompare)
	hm := collections.NewHashedMap(probeSize)
	var doc strings.Builder
	doc.WriteString("<order id=\"7\">")
	for i := 0; i < probeSize; i++ {
		list.InsertLast(i)
		tree.Insert(i * 7 % probeSize)
		hm.Put(fmt.Sprintf("k%d", i), i)
		fmt.Fprintf(&doc, "<item sku=\"s%d\" qty=\"%d\">part &amp; %d</item>", i, i%5, i)
	}
	doc.WriteString("</order>")
	return []struct {
		name string
		root any
	}{
		{"list", list},
		{"rbtree", tree},
		{"hashmap", hm},
		{"xmldoc", xmlite.Parse(doc.String())},
	}
}

const (
	probeSamples = 200
	probeBatch   = 10
)

// probe reports the median per-call time, in microseconds, of f over
// probeSamples batches of probeBatch calls.
func probe(f func()) float64 {
	f()
	samples := make([]float64, probeSamples)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			f()
		}
		samples[s] = us(time.Since(t0)) / probeBatch
	}
	return quantile(samples, 0.5)
}

// runProbes times the snapshot engines (objgraph.Fingerprint, Capture)
// and the masking checkpoint (checkpoint.Capture, Restore) on each shape.
func runProbes(metrics map[string]float64) error {
	for _, s := range probeShapes() {
		root := s.root
		metrics["objgraph.fingerprint_us."+s.name] = probe(func() { objgraph.Fingerprint(root) })
		metrics["objgraph.capture_us."+s.name] = probe(func() { objgraph.Capture(root) })
		var cerr error
		metrics["checkpoint.capture_us."+s.name] = probe(func() {
			if _, err := checkpoint.Capture(root); err != nil {
				cerr = err
			}
		})
		if cerr != nil {
			return fmt.Errorf("probe %s: %w", s.name, cerr)
		}
		// Restore consumes a checkpoint, so capture a batch untimed
		// before timing its restores.
		samples := make([]float64, probeSamples)
		cps := make([]*checkpoint.Checkpoint, probeBatch)
		for i := range samples {
			for j := range cps {
				if cps[j], cerr = checkpoint.Capture(root); cerr != nil {
					return fmt.Errorf("probe %s: %w", s.name, cerr)
				}
			}
			t0 := time.Now()
			for _, cp := range cps {
				if err := cp.Restore(); err != nil {
					return fmt.Errorf("probe %s: restore: %w", s.name, err)
				}
			}
			samples[i] = us(time.Since(t0)) / probeBatch
		}
		metrics["checkpoint.restore_us."+s.name] = quantile(samples, 0.5)
	}
	return nil
}
