package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/mat"
)

// percentile returns the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayReps is the fewest calls a layer replay times.
const replayReps = 5

// replay times fn in isolation for at least minTime and replayReps calls,
// recording every call as a span, and returns the median call time.
func replay(tr *tracer, name string, minTime time.Duration, fn func()) time.Duration {
	fn() // warm caches, pools and workspaces
	var ds []time.Duration
	start := time.Now()
	for len(ds) < replayReps || time.Since(start) < minTime {
		id := tr.begin(name, 0, 0)
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0))
		tr.end(id)
	}
	return median(ds)
}

// relErr returns max|got − want| ÷ max|want| (max|got − want| when want
// is all zero).
func relErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i, w := range want {
		diff = max(diff, math.Abs(got[i]-w))
		scale = max(scale, math.Abs(w))
	}
	if math.IsNaN(diff) {
		return math.Inf(1)
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// flat copies a row-major result matrix into a fresh slice.
func flat(m mat.View) []float64 {
	out := make([]float64, 0, m.R*m.C)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out = append(out, m.At(i, j))
		}
	}
	return out
}

// cacheSizes reads the L2 and L3 sizes of CPU 0 from sysfs ("?" when the
// host does not publish them).
func cacheSizes() (l2, l3 string) {
	l2, l3 = "?", "?"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			l2 = strings.TrimSpace(string(size))
		case "3":
			l3 = strings.TrimSpace(string(size))
		}
	}
	return l2, l3
}

// prod returns the product of dims.
func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

// mttkrpFlops is the computed flop count of one dense MTTKRP,
// 2 · Π dims · rank (one multiply-add per tensor entry and column).
func mttkrpFlops(dims []int, rank int) float64 {
	return 2 * float64(prod(dims)) * float64(rank)
}

// mttkrpBytes is the computed traffic of one mode-n MTTKRP: the tensor
// and every factor read once, the result written once.
func mttkrpBytes(dims []int, rank, n int) float64 {
	elems := prod(dims) + dims[n]*rank
	for _, d := range dims {
		elems += d * rank
	}
	return 8 * float64(elems)
}

func mib(bytes float64) string { return strconv.FormatFloat(bytes/(1<<20), 'f', 2, 64) + " MiB" }
