package main

import (
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// speedProbe measures how fast the machine's memory system runs at the
// moment it is called: the time of a fixed walk through a random cycle
// of probeSlots entries. On a shared host other tenants evict the cache
// and take memory bandwidth for tens of seconds at a time, which moves
// every time metric of a run together; the probe's median speed over a
// run measures that drift so the time metrics can be reported in units
// of a reference machine speed (see normalise).
//
// The table lives outside the Go heap, so it neither changes when the
// program's garbage collector runs nor is scanned by it, and it runs
// none of the program's code: a change to the program moves the probe
// only through the memory traffic it leaves behind.
type speedProbe struct {
	mem  []byte
	next []int32
	at   int32
}

// probeSlots is the table size: 8 MiB of int32, past each core's 4 MiB
// L2, so a walk reads the shared cache or memory. probeSteps makes one
// reading take a few milliseconds; other tenants make single readings
// differ by up to tenfold, so each probe point takes probeReads of them
// and a run reports the median of all.
const (
	probeSlots = 1 << 21
	probeSteps = 30000
	probeReads = 3
)

// probeBytes is the table's resident size, which peak_rss_mb leaves out.
const probeBytes = probeSlots * 4

// refProbeSpeed is the reference machine speed in probe steps per
// microsecond: about the median the probe reads on the 2-vCPU VM the
// bounds were set on, so normalised metrics there read close to raw ones.
const refProbeSpeed = 7.0

func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	next := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeSlots)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's shuffle: the permutation is one cycle through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := probeSlots - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &speedProbe{mem: mem, next: next}, nil
}

// measure takes probeReads readings, each the speed of a walk of
// probeSteps links in steps per microsecond, and appends them to speeds.
func (p *speedProbe) measure(speeds []float64) []float64 {
	for r := 0; r < probeReads; r++ {
		t0 := time.Now()
		at := p.at
		for i := 0; i < probeSteps; i++ {
			at = p.next[at]
		}
		p.at = at
		speeds = append(speeds, probeSteps/us(time.Since(t0)))
	}
	return speeds
}

func (p *speedProbe) close() {
	syscall.Munmap(p.mem)
	p.mem, p.next = nil, nil
}

// normalise turns a run's raw time metric into reference-speed units,
// given the median probe speed measured alongside it. A rate (higher is
// better) scales by refProbeSpeed/speed and a duration by its inverse,
// so a spell in which the machine runs at half speed leaves both where
// they would be at full speed. Without probe readings it returns raw.
func normalise(raw, speed float64, rate bool) float64 {
	if speed <= 0 {
		return raw
	}
	if rate {
		return raw * refProbeSpeed / speed
	}
	return raw * speed / refProbeSpeed
}
