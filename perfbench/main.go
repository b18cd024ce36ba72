// Command perfbench is the repository's benchmark. Each workload generates
// its inputs from --seed, sets the system up several times, measures for
// --seconds, checks the program's outputs and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones (untraced). With
// --trace 1 half the run is measured untraced and half with spans recorded
// around every call the benchmark makes into a layer; the metrics are then
// the per-layer ones plus trace.overhead_frac. README.md maps the metrics to
// workloads and layers. Build and run it through run.sh from the repository
// root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datagen"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 0 = the workload's default; tests run tiny scales
	workDir  string  // WAL state (removed after the run) and traces
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 5

// dataSeed generates every workload's database (the generators' default
// seed). --seed drives what the workload sends to it: update batches, lookup
// keys, delete choices. At the small scales that fit a run, databases drawn
// from different seeds differ in skew enough to move timings by a fifth,
// which would drown the changes the benchmark exists to detect.
const dataSeed = 2019

func dataConfig(scale float64) datagen.Config { return datagen.Config{Scale: scale, Seed: dataSeed} }

// outcome is what one workload run measured and checked.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	checkErr  error    // non-nil when an output check failed
	report    []string // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// latency fills the metric prefix_p50_ms from s and prints its tail,
// prefix_tail_ms, with the tail's percentile and sample count. The tail is
// printed but not a result metric: see README.md.
func (o *outcome) latency(prefix string, s *samples) {
	o.e2e[prefix+"_p50_ms"] = median(s.ms)
	t, windows := windowedTail(s.ms)
	o.notef("%s_tail_ms %.4g ms: %s, the median of %d windows", prefix, t.Value, t, windows)
	o.attempted += s.n()
	o.failed += s.failed
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_rows_per_s", "rows/s", "higher"},
	{"step_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named by module. A layer a
// workload leaves idle reports 0.
var perLayer = []metricDef{
	{"core.plan_ms", "ms", "lower"},
	{"core.aggregates", "count", "lower"},
	{"core.intermediates", "count", "lower"},
	{"core.views", "count", "lower"},
	{"core.groups", "count", "lower"},
	{"moo.run.covar_ms", "ms", "lower"},
	{"moo.run.rtnode_ms", "ms", "lower"},
	{"moo.run.mi_ms", "ms", "lower"},
	{"moo.run.cube_ms", "ms", "lower"},
	{"moo.output_bytes", "bytes", "lower"},
	{"moo.view_bytes", "bytes", "lower"},
	{"moo.ablation.compiled_x", "x", "higher"},
	{"moo.ablation.multi_output_x", "x", "higher"},
	{"moo.ablation.multi_root_x", "x", "higher"},
	{"moo.ablation.parallel_x", "x", "higher"},
	{"data.resort_ms", "ms", "lower"},
	{"data.apply_delta_ms", "ms", "lower"},
	{"ml.linreg.fit_ms", "ms", "lower"},
	{"ml.tree.requeries", "count", "lower"},
	{"ml.tree.requery_ms", "ms", "lower"},
	{"ml.tree.self_ms", "ms", "lower"},
	{"session.apply.dim_ms", "ms", "lower"},
	{"session.apply.fact_ms", "ms", "lower"},
	{"moo.apply_ms", "ms", "lower"},
	{"moo.scan_ms", "ms", "lower"},
	{"moo.merge_ms", "ms", "lower"},
	{"ivm.dirty_groups_frac", "frac", "lower"},
	{"ivm.dirty_views_frac", "frac", "lower"},
	{"moo.scan_frac", "frac", "lower"},
	{"moo.semijoin_groups", "count", "higher"},
	{"moo.fullscan_groups", "count", "lower"},
	{"kernel.groups", "count", "higher"},
	{"kernel.idscan_groups", "count", "higher"},
	{"kernel.cache_hit_rate", "frac", "higher"},
	{"session.fallbacks", "count", "lower"},
	{"session.overhead_ms", "ms", "lower"},
	{"session.lookup_us", "us", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.bytes_per_row", "bytes/row", "lower"},
	{"wal.replay_records", "count", "lower"},
	{"serve.lookup_handler_us", "us", "lower"},
	{"serve.apply_handler_ms", "ms", "lower"},
	{"serve.transport_us", "us", "lower"},
	{"serve.degraded", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"load.lookup_late_ms", "ms", "lower"},
	{"load.apply_late_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// runners maps each workload name to its runner.
var runners = map[string]func(config) (*outcome, error){
	"batch-retailer":    runBatch,
	"maintain-favorita": runMaintain,
	"serve-retailer":    runServe,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: batch-retailer|maintain-favorita|serve-retailer")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	cfg.workDir = filepath.Join(".bench_build", "work")
	cfg.trace = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errCheck marks a run whose output check failed; the result line has
// already been printed.
var errCheck = fmt.Errorf("output check failed")

func run(cfg config, stdout io.Writer) error {
	fn, ok := runners[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg.workDir = filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workDir)
	start := time.Now()
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	out.notef("run took %.1f s", time.Since(start).Seconds())
	res, err := buildResult(cfg, out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	for _, line := range out.report {
		fmt.Fprintln(w, line)
	}
	if out.checkErr != nil {
		fmt.Fprintln(w, "CHECK FAILED:", out.checkErr)
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(blob))
	if err := w.Flush(); err != nil {
		return err
	}
	if out.checkErr != nil {
		return errCheck
	}
	return nil
}

// buildResult selects the metric set the run reports and validates it.
func buildResult(cfg config, out *outcome) (*result, error) {
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
	}
	res := &result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		if !validName(d.Name) {
			return nil, fmt.Errorf("invalid metric name %q", d.Name)
		}
		v := vals[d.Name]
		if math.IsInf(v, 1) {
			// A failed operation reached this percentile: report the whole
			// measured window, a latency beyond any limit.
			v = cfg.seconds * 1000
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// rssMB returns the process's resident set in MB (0 where /proc is absent).
func rssMB() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(blob))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssEvery is how often the resident set is sampled while a workload runs.
const rssEvery = 50 * time.Millisecond

// sampleRSS samples the resident set every rssEvery until the returned stop
// function is called; stop waits for the sampler to exit and returns the
// median sample. Garbage collection makes the peak depend on when a cycle
// happened to run, so the median is the steadier measure of the memory the
// system holds.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		vals := []float64{rssMB()}
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- median(vals)
				return
			case <-tick.C:
				vals = append(vals, rssMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// timeIt returns how long fn took.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// repeatSetup runs setup setupReps times and returns the median duration in
// seconds; the state the last call built is the one measured.
func repeatSetup(setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		d, err := timeIt(setup)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// measured is what splitTrace observed around a workload's measurement.
type measured struct {
	tr       *tracer // the traced half's spans; nil in an untraced run
	overhead float64 // trace.overhead_frac
	rssMB    float64 // median resident set over the untraced measurement
}

// splitTrace runs measure for the whole window untraced, or, in a traced
// run, for half untraced and half traced. trace.overhead_frac compares the
// primary end-to-end latency measure returns for the two halves.
func splitTrace(cfg config, measure func(d time.Duration, tr *tracer) (primary float64, err error)) (measured, error) {
	var m measured
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	stop := sampleRSS()
	plain, err := measure(window, nil)
	m.rssMB = stop()
	if err != nil || !cfg.trace {
		return m, err
	}
	m.tr = newTracer()
	traced, err := measure(window, m.tr)
	if err != nil {
		return m, err
	}
	if plain > 0 {
		m.overhead = traced/plain - 1
	}
	return m, m.tr.write(filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}
