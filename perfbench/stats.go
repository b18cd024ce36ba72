package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// samples collects operation latencies in milliseconds. A failed or refused
// operation is recorded as +Inf: it misses every latency limit, so it sorts
// past every successful one and lifts the percentiles that reach it.
type samples struct {
	ms     []float64
	failed int
}

func (s *samples) add(d time.Duration) { s.ms = append(s.ms, float64(d)/float64(time.Millisecond)) }

func (s *samples) fail() {
	s.ms = append(s.ms, math.Inf(1))
	s.failed++
}

func (s *samples) n() int { return len(s.ms) }

// median returns the middle value (the mean of the two middle values for an
// even count), 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail is a high percentile of a sample set: the value at rank idx of the
// sorted samples, which is the pct-th percentile, with Beyond samples above it.
type tail struct {
	Value  float64
	Pct    float64
	Beyond int
	N      int
}

// minBeyond is how many samples a reported tail percentile must leave above
// it; fewer would make the percentile the luck of a handful of requests.
const minBeyond = 10

// highTail returns the highest percentile that leaves at least minBeyond
// samples above it. With fewer than 2·minBeyond+1 samples that rank falls
// at or below the median, and the median is returned instead (Pct 50).
func highTail(v []float64) tail {
	n := len(v)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := n - 1 - minBeyond
	if mid := (n - 1) / 2; idx < mid {
		return tail{Value: median(s), Pct: 50, Beyond: n - 1 - mid, N: n}
	}
	return tail{Value: s[idx], Pct: 100 * float64(idx+1) / float64(n), Beyond: n - 1 - idx, N: n}
}

func (t tail) String() string {
	return fmt.Sprintf("p%.2f (%d of %d samples beyond)", t.Pct, t.Beyond, t.N)
}

// tailWindow is the fewest consecutive samples one tail is taken over.
const tailWindow = 1000

// windowedTail splits time-ordered samples into consecutive windows of at
// least tailWindow samples, takes highTail of each and returns the one with
// the median value. Interference from outside the program comes in bursts
// that can dominate one window's worst requests; the median over windows
// reports the tail the program usually shows. Fewer than 2·tailWindow
// samples make one window.
func windowedTail(v []float64) (t tail, windows int) {
	windows = max(len(v)/tailWindow, 1)
	tails := make([]tail, windows)
	for w := range tails {
		tails[w] = highTail(v[w*len(v)/windows : (w+1)*len(v)/windows])
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Value < tails[j].Value })
	return tails[(windows-1)/2], windows
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name:
// starts with a letter or digit, at most 64 of [A-Za-z0-9_.-].
func validName(name string) bool { return metricName.MatchString(name) }
