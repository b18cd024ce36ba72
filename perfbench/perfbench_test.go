package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestHighTailLeavesTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose
	}
	got := highTail(v)
	if got.Value != 90 || got.Pct != 90 || got.Beyond != 10 || got.N != 100 {
		t.Fatalf("highTail(1..100) = %+v, want value 90 at p90 with 10 of 100 beyond", got)
	}
	if got := highTail(v[:21]); got.Beyond != minBeyond || got.N != 21 {
		t.Fatalf("highTail of 21 samples = %+v, want 10 beyond", got)
	}
	// Too few samples for any rank with ten beyond above the median: the
	// median is reported.
	few := []float64{5, 1, 3, 2, 4}
	if got := highTail(few); got.Value != 3 || got.Pct != 50 || got.N != 5 {
		t.Fatalf("highTail(5 samples) = %+v, want the median 3", got)
	}
	if got := highTail(nil); got.N != 0 {
		t.Fatalf("highTail(nil) = %+v", got)
	}
}

func TestWindowedTailSkipsOneBurst(t *testing.T) {
	v := make([]float64, 3*tailWindow)
	for i := range v {
		v[i] = float64(i % 100) // every window's tail is 98
	}
	for i := 0; i < 50; i++ {
		v[i] = 1000 // a burst inside the first window
	}
	got, windows := windowedTail(v)
	if windows != 3 || got.Value != 98 {
		t.Fatalf("windowedTail = %+v over %d windows, want 98 over 3", got, windows)
	}
	if got, windows := windowedTail(v[:tailWindow+10]); windows != 1 || got.Value != 1000 {
		t.Fatalf("one window: %+v over %d windows, want the burst", got, windows)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}

// fakeClock advances only when told: sleeping moves it forward, and ops
// move it by their service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesQueuedRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	loop := openLoop{interval: 10 * time.Millisecond, clock: clk}
	stop := clk.now.Add(60 * time.Millisecond)
	st := loop.run(stop, func(i int) error {
		if i == 0 {
			clk.Sleep(50 * time.Millisecond) // one stalled request
		} else {
			clk.Sleep(time.Millisecond)
		}
		return nil
	})
	// Request i is due at 10·i ms. Request 0 ends at 50; the others queue
	// behind it on the one connection and each ends 1 ms after the one
	// before: latency counts from the due time, not from the send.
	wantLat := []float64{50, 41, 32, 23, 14, 5}
	wantLate := []float64{0, 40, 31, 22, 13, 4}
	if len(st.lat.ms) != len(wantLat) {
		t.Fatalf("got %d requests, want %d", len(st.lat.ms), len(wantLat))
	}
	for i := range wantLat {
		if st.lat.ms[i] != wantLat[i] || st.late[i] != wantLate[i] {
			t.Fatalf("request %d: latency %v late %v, want %v and %v", i, st.lat.ms[i], st.late[i], wantLat[i], wantLate[i])
		}
	}
}

// lateClock oversleeps by a fixed amount, like a loaded timer.
type lateClock struct {
	fakeClock
	over time.Duration
}

func (c *lateClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.over) }

func TestOpenLoopDoesNotChargeGeneratorLateness(t *testing.T) {
	clk := &lateClock{fakeClock{now: time.Unix(0, 0)}, 2 * time.Millisecond}
	loop := openLoop{interval: 10 * time.Millisecond, clock: clk}
	st := loop.run(clk.now.Add(40*time.Millisecond), func(i int) error {
		clk.now = clk.now.Add(time.Millisecond)
		return nil
	})
	// The connection is free at every due time; the generator wakes 2 ms
	// late each time. Latency is the 1 ms service time, lateness 2 ms.
	for i := range st.lat.ms {
		if i > 0 && (st.lat.ms[i] != 1 || st.late[i] != 2) {
			t.Fatalf("request %d: latency %v late %v, want 1 and 2", i, st.lat.ms[i], st.late[i])
		}
	}
	if len(st.lat.ms) != 4 {
		t.Fatalf("got %d requests, want 4", len(st.lat.ms))
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	loop := openLoop{interval: time.Millisecond, clock: clk}
	st := loop.run(clk.now.Add(30*time.Millisecond), func(i int) error {
		clk.Sleep(100 * time.Microsecond)
		if i%3 == 0 {
			return os.ErrDeadlineExceeded
		}
		return nil
	})
	if st.lat.n() != 30 || st.lat.failed != 10 {
		t.Fatalf("got %d requests, %d failed; want 30 and 10", st.lat.n(), st.lat.failed)
	}
	// Failures sort past every success: the ten failures sit exactly beyond
	// the tail, and an eleventh reaches it.
	if tl := highTail(st.lat.ms); math.IsInf(tl.Value, 1) {
		t.Fatalf("tail %+v reached a failure with only 10 failures beyond", tl)
	}
	if tl := highTail(append(st.lat.ms, math.Inf(1))); !math.IsInf(tl.Value, 1) {
		t.Fatalf("tail %+v missed the 11th failure", tl)
	}

	out := newOutcome()
	out.latency("read", &st.lat)
	out.latency("write", &samples{ms: []float64{math.Inf(1)}, failed: 1})
	for _, d := range endToEnd {
		if _, ok := out.e2e[d.Name]; !ok {
			out.e2e[d.Name] = 1
		}
	}
	res, err := buildResult(config{seconds: 15}, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 31 || res.Failed != 11 {
		t.Fatalf("attempted %d failed %d, want 31 and 11", res.Attempted, res.Failed)
	}
	if got := res.Metrics["write_p50_ms"].Value; got != 15000 {
		t.Fatalf("a failed request reported %v ms, want the whole 15 s window", got)
	}
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !validName(want[i].Name) {
				t.Errorf("invalid metric name %q", want[i].Name)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if _, ok := runners[w.Name]; !ok || !validName(w.Name) {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(bench.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(runners))
	}
}

func TestCompareRows(t *testing.T) {
	want := map[string][]float64{"a": {1e6, 3}, "b": {2e6, 4}}
	near := map[string][]float64{"a": {1e6 * (1 + 1e-12), 3}, "b": {2e6, 4}}
	if err := compareRows("near", near, want, 1); err != nil {
		t.Fatalf("sums within the bound rejected: %v", err)
	}
	for name, got := range map[string]map[string][]float64{
		"sum drift":    {"a": {1e6 * (1 + 1e-6), 3}, "b": {2e6, 4}},
		"monoid ulp":   {"a": {1e6, math.Nextafter(3, 4)}, "b": {2e6, 4}},
		"missing":      {"a": {1e6, 3}},
		"wrong group":  {"a": {1e6, 3}, "c": {2e6, 4}},
		"nan sum":      {"a": {math.NaN(), 3}, "b": {2e6, 4}},
		"extra column": {"a": {1e6, 3, 0}, "b": {2e6, 4, 0}},
	} {
		if err := compareRows(name, got, want, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
}

// TestSmoke runs every workload end to end at a tiny scale, untraced and
// traced, output checks included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for name := range runners {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.5, trace: traced, scale: 0.0005, workDir: t.TempDir()}
			var buf bytes.Buffer
			if err := run(cfg, &buf); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %+v", name, traced, res)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Fatalf("%s: metric %s missing or unit %q", name, d.Name, m.Unit)
				}
				if !traced && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, res.Metrics[d.Name].Value)
				}
			}
		}
	}
}
