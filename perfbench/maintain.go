package main

import (
	"fmt"
	"runtime"
	"time"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// maintain-favorita: incremental maintenance only. Favorita sits behind a
// 2-shard ShardedSession serving covar plus one monoid query (MIN, MAX,
// DISTINCT and top-3 grouped by a cube dimension). One writer runs a
// closed loop of synchronous Apply calls, each a size-neutral 1% delta, in
// cycles that update every dimension relation once and the fact relation
// twice (fact updates are the common case); after each round the
// reader merges every query of the published snapshot (a read). The step is
// a from-scratch recompute of the batch, timed before the rounds. With Sales
// two rounds in seven, the write median falls inside the Sales rounds
// rather than on the edge between two relations' latencies.

const (
	maintainScale     = 0.002
	maintainShards    = 2
	maintainDeltaFrac = 0.01
	maintainSteps     = 9 // from-scratch recomputes; step_s is their median
	lookupSample      = 64
)

type maintainRun struct {
	cfg     config
	ds      *datagen.Dataset
	queries []*query.Query
	sess    *lmfao.ShardedSession
	live    *liveGen
	rels    []string // join-tree relations, the fact relation last
	cycle   []string // one cycle of update rounds
	fact    string

	read, write, steps samples
	rows               int
	writeBusy          time.Duration
	rounds             []roundStats
	byRel              map[string][]float64 // apply ms per relation
	keys               [][]int64            // sampled groups of the monoid query
}

// roundStats sums one Apply round's per-shard maintenance stats.
type roundStats struct {
	wall, slowest time.Duration
	sum           lmfao.ApplyStats
	fallbacks     int
}

func runMaintain(cfg config) (*outcome, error) {
	scale := cfg.scale
	if scale == 0 {
		scale = maintainScale
	}
	m := &maintainRun{cfg: cfg}
	defer func() {
		if m.sess != nil {
			m.sess.Close()
		}
	}()
	setupS, err := repeatSetup(func() error { return m.setup(scale) })
	if err != nil {
		return nil, err
	}
	ms, err := splitTrace(cfg, m.measure)
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	out.notef("maintain-favorita: favorita scale %g (%d %s rows), %d shards, %d queries, %.0f%% deltas over %v",
		scale, m.ds.DB.Relation(m.fact).Len(), m.fact, maintainShards, len(m.queries), 100*maintainDeltaFrac, m.rels)
	for _, rel := range m.rels {
		out.notef("  %-14s apply median %8.3f ms over %d rounds", rel, median(m.byRel[rel]), len(m.byRel[rel]))
	}
	out.e2e["setup_s"] = setupS
	out.latency("read", &m.read)
	out.latency("write", &m.write)
	out.e2e["write_rows_per_s"] = float64(m.rows) / m.writeBusy.Seconds()
	out.e2e["step_s"] = median(m.steps.ms) / 1000
	out.attempted += m.steps.n()
	out.failed += m.steps.failed
	out.e2e["rss_mb"] = ms.rssMB
	if ms.tr != nil {
		m.layers(out, ms.tr, ms.overhead)
	}
	out.checkErr = m.check()
	return out, nil
}

// monoidQuery is MIN, MAX, COUNT DISTINCT and top-3 of the first
// categorical attribute, grouped by the first cube dimension.
func monoidQuery(ds *datagen.Dataset) *query.Query {
	q := query.NewQuery("monoid", ds.CubeDims[:1])
	a := ds.Categorical[0]
	q.MonoidAggs = []query.MonoidAgg{query.MinOf(a), query.MaxOf(a), query.DistinctOf(a), query.TopKOf(a, 3)}
	return q
}

func (m *maintainRun) setup(scale float64) error {
	if m.sess != nil {
		m.sess.Close()
		m.sess = nil
	}
	ds, err := datagen.Favorita(dataConfig(scale))
	if err != nil {
		return err
	}
	m.ds = ds
	m.queries = append(workloads.CovarMatrix(ds), monoidQuery(ds))
	m.live = newLiveGen(ds.DB, m.cfg.seed+1)
	sess, err := lmfao.NewShardedSession(ds.DB, m.queries, lmfao.DefaultOptions(), lmfao.ShardOptions{Shards: maintainShards})
	if err != nil {
		return err
	}
	m.sess = sess
	m.fact = sess.FactRelation()
	m.rels = nil
	for _, rel := range ds.DB.Relations() {
		if ds.Tree.NodeByRelation(rel.Name) != nil && rel.Name != m.fact {
			m.rels = append(m.rels, rel.Name)
		}
	}
	m.cycle = append(append([]string(nil), m.rels...), m.fact, m.fact)
	m.rels = append(m.rels, m.fact)
	if _, err := sess.Run(); err != nil {
		return err
	}
	// One warm-up round per relation compiles its maintenance kernels and
	// builds its join-key indexes.
	for _, rel := range m.rels {
		d, err := m.delta(rel)
		if err != nil {
			return err
		}
		if _, err := sess.Apply(d); err != nil {
			return fmt.Errorf("warm-up %s: %w", rel, err)
		}
	}
	return nil
}

func (m *maintainRun) delta(rel string) (data.Delta, error) {
	return m.live.delta(rel, max(2, int(maintainDeltaFrac*float64(m.live.rels[rel].len()))))
}

// measure runs the from-scratch steps, then write-then-read rounds until d
// has passed, and returns the write median (ms).
func (m *maintainRun) measure(d time.Duration, tr *tracer) (float64, error) {
	m.read, m.write, m.steps = samples{}, samples{}, samples{}
	m.rows, m.writeBusy, m.rounds, m.byRel = 0, 0, nil, map[string][]float64{}
	// The from-scratch steps come first, so the state the output check
	// reads was maintained, not recomputed. They start from a collected
	// heap, not from whatever garbage set-up left.
	runtime.GC()
	for i := 0; i < maintainSteps; i++ {
		took, err := timeIt(func() error {
			return tr.do("session.run", 0, func(int64) error {
				_, err := m.sess.Run()
				return err
			})
		})
		if err != nil {
			m.steps.fail()
		} else {
			m.steps.add(took)
		}
	}
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		rel := m.cycle[i%len(m.cycle)]
		delta, err := m.delta(rel)
		if err != nil {
			return 0, err
		}
		span := "session.apply.dim"
		if rel == m.fact {
			span = "session.apply.fact"
		}
		var stats []*lmfao.ApplyStats
		start := time.Now()
		err = tr.do(span, 0, func(int64) (err error) {
			stats, err = m.sess.Apply(delta)
			return err
		})
		took := time.Since(start)
		if err != nil {
			// A failed round leaves the generator's mirror ahead of the
			// session; the output check will report the divergence.
			m.write.fail()
		} else {
			m.write.add(took)
			m.byRel[rel] = append(m.byRel[rel], ms(took))
			m.rows += delta.InsertRows() + delta.DeleteRows()
			m.writeBusy += took
			m.rounds = append(m.rounds, sumRound(took, stats))
		}

		start = time.Now()
		if err := tr.do("session.read", 0, func(int64) error { return m.readAll() }); err != nil {
			m.read.fail()
		} else {
			m.read.add(time.Since(start))
		}
		if tr != nil {
			m.lookups(tr)
		}
	}
	return median(m.write.ms), nil
}

// readAll merges every query of the newest snapshot across the shards.
func (m *maintainRun) readAll() error {
	sn := m.sess.Head()
	for qi := range m.queries {
		if _, err := sn.MergedResult(qi); err != nil {
			return err
		}
	}
	return nil
}

// lookups times point lookups of sampled monoid-query groups on the newest
// snapshot (traced runs only).
func (m *maintainRun) lookups(tr *tracer) {
	sn := m.sess.Head()
	qi := len(m.queries) - 1
	if m.keys == nil {
		v, err := sn.MergedResult(qi)
		if err != nil {
			return
		}
		for i := 0; i < v.NumRows() && len(m.keys) < lookupSample; i++ {
			m.keys = append(m.keys, v.Key(i))
		}
	}
	for _, k := range m.keys {
		id := tr.begin("session.lookup", 0, 0)
		sn.Lookup(qi, k...)
		tr.end(id)
	}
}

func sumRound(wall time.Duration, stats []*lmfao.ApplyStats) roundStats {
	r := roundStats{wall: wall}
	for _, st := range stats {
		if st == nil {
			continue
		}
		s := &r.sum
		s.Elapsed += st.Elapsed
		s.ScanElapsed += st.ScanElapsed
		s.MergeElapsed += st.MergeElapsed
		s.DirtyGroups += st.DirtyGroups
		s.TotalGroups += st.TotalGroups
		s.DirtyViews += st.DirtyViews
		s.TotalViews += st.TotalViews
		s.SemiJoinGroups += st.SemiJoinGroups
		s.FullScanGroups += st.FullScanGroups
		s.KernelGroups += st.KernelGroups
		s.IDScanGroups += st.IDScanGroups
		s.ScannedRows += st.ScannedRows
		s.BaseRows += st.BaseRows
		r.slowest = max(r.slowest, st.Elapsed)
		if !st.Incremental {
			r.fallbacks++
		}
	}
	return r
}

// applyLayers fills the maintenance-path metrics from rounds' stats and
// the engines' kernel caches.
func applyLayers(L map[string]float64, rounds []roundStats, engines []*moo.Engine) {
	var apply, scan, merge, overhead []float64
	var tot lmfao.ApplyStats
	fallbacks := 0
	for _, r := range rounds {
		apply = append(apply, ms(r.sum.Elapsed))
		scan = append(scan, ms(r.sum.ScanElapsed))
		merge = append(merge, ms(r.sum.MergeElapsed))
		overhead = append(overhead, ms(r.wall-r.slowest))
		tot.DirtyGroups += r.sum.DirtyGroups
		tot.TotalGroups += r.sum.TotalGroups
		tot.DirtyViews += r.sum.DirtyViews
		tot.TotalViews += r.sum.TotalViews
		tot.SemiJoinGroups += r.sum.SemiJoinGroups
		tot.FullScanGroups += r.sum.FullScanGroups
		tot.KernelGroups += r.sum.KernelGroups
		tot.IDScanGroups += r.sum.IDScanGroups
		tot.ScannedRows += r.sum.ScannedRows
		tot.BaseRows += r.sum.BaseRows
		fallbacks += r.fallbacks
	}
	n := float64(max(len(rounds), 1))
	L["moo.apply_ms"] = median(apply)
	L["moo.scan_ms"] = median(scan)
	L["moo.merge_ms"] = median(merge)
	L["session.overhead_ms"] = median(overhead)
	L["ivm.dirty_groups_frac"] = ratio(tot.DirtyGroups, tot.TotalGroups)
	L["ivm.dirty_views_frac"] = ratio(tot.DirtyViews, tot.TotalViews)
	L["moo.scan_frac"] = ratio(tot.ScannedRows, tot.BaseRows)
	L["moo.semijoin_groups"] = float64(tot.SemiJoinGroups) / n
	L["moo.fullscan_groups"] = float64(tot.FullScanGroups) / n
	L["kernel.groups"] = float64(tot.KernelGroups) / n
	L["kernel.idscan_groups"] = float64(tot.IDScanGroups) / n
	L["session.fallbacks"] = float64(fallbacks)
	var hits, misses uint64
	for _, e := range engines {
		st := e.KernelCacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	L["kernel.cache_hit_rate"] = ratio(int(hits), int(hits+misses))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (m *maintainRun) layers(out *outcome, tr *tracer, overhead float64) {
	L := out.layer
	L["trace.overhead_frac"] = overhead
	L["session.apply.dim_ms"] = median(tr.durations("session.apply.dim"))
	L["session.apply.fact_ms"] = median(tr.durations("session.apply.fact"))
	L["session.lookup_us"] = 1000 * median(tr.durations("session.lookup"))
	var engines []*moo.Engine
	for i := 0; i < m.sess.NumShards(); i++ {
		engines = append(engines, m.sess.Shard(i).Engine())
	}
	applyLayers(L, m.rounds, engines)
}

// check compares every query's merged result with a fresh unsharded run
// over the generator's live tuples.
func (m *maintainRun) check() error {
	m.sess.Wait()
	db, err := m.live.database()
	if err != nil {
		return err
	}
	eng, err := moo.NewEngine(db, moo.DefaultOptions())
	if err != nil {
		return err
	}
	want, err := eng.Run(m.queries)
	if err != nil {
		return fmt.Errorf("recompute: %w", err)
	}
	sn := m.sess.Head()
	for qi, q := range m.queries {
		got, err := sn.MergedResult(qi)
		if err != nil {
			return err
		}
		if err := compareRows("maintained "+q.Name, viewRows(got, q.NumCols()), viewRows(want.Results[qi], q.NumCols()), len(q.Aggs)); err != nil {
			return err
		}
	}
	return nil
}
