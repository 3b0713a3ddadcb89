package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between closest ranks; 0 for an empty slice. vals is
// sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is how run-to-run spread is judged. Fewer than two values collapse to
// the single value.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// CPython's exclusive method, integer arithmetic included: j is
	// clamped to 1..len-1 and delta may then leave 0..4 (extrapolation).
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// geomean is the geometric mean of positive values; 0 when empty.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowPeakRSSMiB returns the process's peak resident set since the
// previous call (Linux's VmHWM) and resets that mark to the current
// resident set, so each rate window gets its own peak. Where the kernel
// offers no reset, it returns the peak since the process started.
func windowPeakRSSMiB() float64 {
	var kib float64
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := bytes.Cut(status, []byte("VmHWM:")); ok {
			line, _, _ := bytes.Cut(rest, []byte("\n"))
			kib, _ = strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(line), []byte(" kB"))), 64)
		}
	}
	if kib == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		kib = float64(ru.Maxrss)
	}
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5") // 5 resets the peak resident set
		f.Close()
	}
	return kib / 1024
}
