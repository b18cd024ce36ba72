package main

import (
	"fmt"
	"time"

	lmfao "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// batch-retailer: the paper's static pipeline on retailer. Each cycle runs
// the four batches of §4.1 warm through the engine (a read), applies a
// size-neutral Inventory delta and recomputes covar, which misses the
// engine's sorted-copy cache (a write), and learns ridge linear regression
// and a depth-4 regression tree (the step, Table 4). Planning, trie scans,
// view emission, sorting and the ML layer do the work; maintenance, kernels,
// the WAL and the HTTP tier sit idle.

const (
	batchScale     = 0.001
	batchDeltaFrac = 0.01
	// batchLearnEvery is how many cycles pass between learning steps: the
	// tree dominates a cycle, and reads and writes need the samples.
	batchLearnEvery = 3
)

var batchNames = []string{"covar", "rtnode", "mi", "cube"}

type batchRun struct {
	cfg     config
	ds      *datagen.Dataset
	eng     *moo.Engine
	batches [][]*query.Query
	live    *liveGen
	lastCov *moo.BatchResult // newest covar result, what linear regression reads

	read, write, learn samples
	rows               int
	writeBusy          time.Duration
	stats              []core.Stats // per batch, from the last traced pass
	bytesOut, bytesVw  int64
	tree               *treeProbe
}

func runBatch(cfg config) (*outcome, error) {
	scale := cfg.scale
	if scale == 0 {
		scale = batchScale
	}
	b := &batchRun{cfg: cfg}
	setupS, err := repeatSetup(func() error { return b.setup(scale) })
	if err != nil {
		return nil, err
	}
	b.live = newLiveGen(b.ds.DB, cfg.seed+1)
	ms, err := splitTrace(cfg, b.measure)
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	out.notef("batch-retailer: retailer scale %g (%d Inventory rows), cycles of 4 warm batches + %.0f%% Inventory delta + covar recompute, learning every %d cycles",
		scale, b.ds.DB.Relation("Inventory").Len(), 100*batchDeltaFrac, batchLearnEvery)
	out.e2e["setup_s"] = setupS
	out.latency("read", &b.read)
	out.latency("write", &b.write)
	out.e2e["write_rows_per_s"] = float64(b.rows) / b.writeBusy.Seconds()
	out.e2e["step_s"] = median(b.learn.ms) / 1000
	out.attempted += b.learn.n()
	out.failed += b.learn.failed
	out.e2e["rss_mb"] = ms.rssMB
	if ms.tr != nil {
		if err := b.layers(out, ms.tr, ms.overhead); err != nil {
			return nil, err
		}
	}
	out.checkErr = b.check()
	return out, nil
}

func (b *batchRun) setup(scale float64) error {
	ds, err := datagen.Retailer(dataConfig(scale))
	if err != nil {
		return err
	}
	b.ds = ds
	b.eng = moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
	b.batches = nil
	for _, name := range batchNames {
		q, err := workloads.ByName(name, ds)
		if err != nil {
			return err
		}
		res, err := b.eng.Run(q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if name == "covar" {
			b.lastCov = res
		}
		b.batches = append(b.batches, q)
	}
	return nil
}

// runOne evaluates one batch; traced, it splits planning from execution.
func (b *batchRun) runOne(tr *tracer, i int, span string) (*moo.BatchResult, error) {
	if tr == nil {
		return b.eng.Run(b.batches[i])
	}
	var plan *core.Plan
	err := tr.do("core.plan", 0, func(int64) (err error) {
		plan, err = b.eng.PlanBatch(b.batches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *moo.BatchResult
	err = tr.do(span, 0, func(int64) (err error) {
		res, err = b.eng.RunPlan(plan)
		return err
	})
	return res, err
}

// measure runs cycles until d has passed and returns the read median (ms).
func (b *batchRun) measure(d time.Duration, tr *tracer) (float64, error) {
	b.read, b.write, b.learn = samples{}, samples{}, samples{}
	b.rows, b.writeBusy = 0, 0
	b.tree = &treeProbe{eng: b.eng, tr: tr}
	deadline := time.Now().Add(d)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		start := time.Now()
		passFailed := false
		b.stats = b.stats[:0]
		b.bytesOut, b.bytesVw = 0, 0
		for i, name := range batchNames {
			res, err := b.runOne(tr, i, "moo.run."+name)
			if err != nil {
				passFailed = true
				continue
			}
			if i == 0 {
				b.lastCov = res
			}
			b.stats = append(b.stats, res.Plan.Stats)
			b.bytesOut += res.OutputBytes
			b.bytesVw += res.ViewBytes
		}
		if passFailed {
			b.read.fail()
		} else {
			b.read.add(time.Since(start))
		}

		delta, err := b.live.delta("Inventory", int(batchDeltaFrac*float64(b.ds.DB.Relation("Inventory").Len())))
		if err != nil {
			return 0, err
		}
		start = time.Now()
		err = tr.do("data.apply_delta", 0, func(int64) error { return b.ds.DB.ApplyDelta(delta) })
		if err != nil {
			return 0, fmt.Errorf("apply delta: %w", err)
		}
		res, err := b.runOne(tr, 0, "moo.recompute.covar")
		took := time.Since(start)
		if err != nil {
			b.write.fail()
		} else {
			b.lastCov = res
			b.write.add(took)
			b.rows += delta.InsertRows() + delta.DeleteRows()
			b.writeBusy += took
		}

		if cycle%batchLearnEvery == 0 {
			start = time.Now()
			if err := b.learnModels(tr); err != nil {
				b.learn.fail()
			} else {
				b.learn.add(time.Since(start))
			}
		}
	}
	return median(b.read.ms), nil
}

// learnModels fits ridge linear regression from the newest covar result and
// grows a depth-4 regression tree, every node a fresh batch on the engine.
func (b *batchRun) learnModels(tr *tracer) error {
	spec := workloads.LinRegSpec(b.ds)
	err := tr.do("ml.linreg", 0, func(int64) error {
		_, err := lmfao.LearnLinearRegressionFrom(resultQueryable{b.lastCov}, b.ds.DB, spec)
		return err
	})
	if err != nil {
		return fmt.Errorf("linear regression: %w", err)
	}
	return tr.do("ml.tree", 0, func(id int64) error {
		b.tree.parent = id
		_, err := lmfao.LearnDecisionTreeFrom(b.tree, b.ds.DB, workloads.RTSpec(b.ds))
		return err
	})
}

// layers derives the per-layer metrics of a traced run.
func (b *batchRun) layers(out *outcome, tr *tracer, overhead float64) error {
	L := out.layer
	L["trace.overhead_frac"] = overhead
	L["core.plan_ms"] = median(tr.durations("core.plan"))
	for _, st := range b.stats {
		L["core.aggregates"] += float64(st.AppAggregates)
		L["core.intermediates"] += float64(st.IntermediateAggs)
		L["core.views"] += float64(st.Views)
		L["core.groups"] += float64(st.Groups)
	}
	for _, name := range batchNames {
		L["moo.run."+name+"_ms"] = median(tr.durations("moo.run." + name))
	}
	L["moo.output_bytes"] = float64(b.bytesOut)
	L["moo.view_bytes"] = float64(b.bytesVw)
	L["data.resort_ms"] = median(tr.durations("moo.recompute.covar")) - L["moo.run.covar_ms"]
	L["data.apply_delta_ms"] = median(tr.durations("data.apply_delta"))
	L["ml.linreg.fit_ms"] = median(tr.durations("ml.linreg"))
	if learns := len(tr.durations("ml.tree")); learns > 0 {
		req := tr.durations("ml.tree.requery")
		total := 0.0
		for _, v := range req {
			total += v
		}
		L["ml.tree.requeries"] = float64(len(req)) / float64(learns)
		L["ml.tree.requery_ms"] = total / float64(learns)
	}
	L["ml.tree.self_ms"] = median(tr.selfTimes("ml.tree"))
	ratios, err := ablation(b.ds, b.batches[0], tr)
	if err != nil {
		return err
	}
	for k, v := range ratios {
		L[k] = v
	}
	return nil
}

// ablationLevels are Figure 5's cumulative optimization levels over the
// covar batch, set through moo.Options.
var ablationLevels = []struct {
	metric string // ratio of the previous level's time to this one's
	opts   moo.Options
}{
	{"", moo.Options{Threads: 1}},
	{"moo.ablation.compiled_x", moo.Options{Compiled: true, Threads: 1}},
	{"moo.ablation.multi_output_x", moo.Options{Compiled: true, MultiOutput: true, Threads: 1}},
	{"moo.ablation.multi_root_x", moo.Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1}},
	{"moo.ablation.parallel_x", moo.DefaultOptions()},
}

// ablationRuns is how many warm runs each level's time is the median of.
const ablationRuns = 3

// ablation times the covar batch warm at each level and returns each
// level's speed-up over the previous one.
func ablation(ds *datagen.Dataset, covar []*query.Query, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	prev := 0.0
	for _, lv := range ablationLevels {
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, lv.opts)
		if _, err := eng.Run(covar); err != nil { // fills the sorted-copy cache
			return nil, err
		}
		var times []float64
		for i := 0; i < ablationRuns; i++ {
			d, err := timeIt(func() error {
				return tr.do("moo.ablation", 0, func(int64) error {
					_, err := eng.Run(covar)
					return err
				})
			})
			if err != nil {
				return nil, err
			}
			times = append(times, ms(d))
		}
		t := median(times)
		if lv.metric != "" {
			out[lv.metric] = prev / t
		}
		prev = t
	}
	return out, nil
}

// check compares every batch, over the current (mutated) database, with
// the baseline engine over the materialized join.
func (b *batchRun) check() error {
	base, err := lmfao.NewBaseline(b.ds.DB)
	if err != nil {
		return err
	}
	for i, name := range batchNames {
		res, err := b.eng.Run(b.batches[i])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		want, err := base.Run(b.batches[i])
		if err != nil {
			return fmt.Errorf("%s baseline: %w", name, err)
		}
		for qi, q := range b.batches[i] {
			if err := compareRows(fmt.Sprintf("%s/%s", name, q.Name), viewRows(res.Results[qi], q.NumCols()), want[qi].Rows, len(q.Aggs)); err != nil {
				return err
			}
		}
	}
	return nil
}

// resultQueryable serves one engine result through the read contract, so
// an application reads it without recomputing anything.
type resultQueryable struct{ res *moo.BatchResult }

func (r resultQueryable) NumQueries() int             { return len(r.res.Results) }
func (r resultQueryable) Result(qi int) *lmfao.Result { return r.res.Results[qi] }
func (r resultQueryable) Versions() lmfao.ShardVector { return lmfao.ShardVector{r.res.Versions} }
func (r resultQueryable) Lookup(qi int, key ...int64) ([]float64, bool) {
	v := r.res.Results[qi]
	i := v.Lookup(key...)
	if i < 0 {
		return nil, false
	}
	n := r.res.Plan.VisibleCols(qi)
	return append([]float64(nil), v.Vals[i*v.Stride:i*v.Stride+n]...), true
}

// treeProbe is the tree learner's Queryable: every requery runs on the
// engine, counted and timed as a child of the enclosing ml.tree span.
type treeProbe struct {
	resultQueryable
	eng    *moo.Engine
	tr     *tracer
	parent int64
}

func (p *treeProbe) Requery(queries []*lmfao.Query) ([]*lmfao.Result, error) {
	var res *moo.BatchResult
	err := p.tr.do("ml.tree.requery", p.parent, func(int64) (err error) {
		res, err = p.eng.Run(queries)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}
