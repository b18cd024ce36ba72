package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/workloads"
)

// shardBench measures sharded maintenance throughput: the covar batch is
// computed once per configuration, then the same stream of shard-local
// update batches (each clustered on one shard-key value — a per-store feed)
// is replayed through a ShardedSession at 1 shard and at N shards, and the
// wall-clock maintenance throughput is compared.
//
// Two effects compound into the N-shard speedup:
//
//   - partition pruning: a shard-local batch reaches exactly one shard,
//     whose base structures (delete-matching scans, column gathers, view
//     merges) cover 1/N of the data — a per-round cost cut that holds even
//     on a single core;
//   - parallel writers: distinct batches route to distinct shards and their
//     Session writers maintain concurrently, which adds wall-clock scaling
//     on multi-core hosts (each writer also batches/coalesces its queue).
//
// The 1-shard configuration runs the identical code path (routing, queue,
// writer), so the comparison isolates sharding itself, not the fan-out
// machinery.
func (h *harness) shardBench(names []string, shards, batches, rowsPerBatch int, jsonPath string) error {
	if shards < 2 {
		return fmt.Errorf("-shards must be at least 2 (got %d)", shards)
	}
	fmt.Printf("\nSharded maintenance throughput (covar batch, %d update batches x %d rows, shard-local streams)\n",
		batches, rowsPerBatch)
	w := newTab()
	fmt.Fprintln(w, "dataset\tfact rows\tshards\telapsed\trows/s\tbatch/round\tspeedup")
	type cfgResult struct {
		Shards      int     `json:"shards"`
		ElapsedMS   float64 `json:"elapsed_ms"`
		RowsPerSec  float64 `json:"rows_per_sec"`
		Rounds      int64   `json:"maintenance_rounds"`
		BatchFactor float64 `json:"updates_per_round"`
	}
	type benchResult struct {
		Dataset      string      `json:"dataset"`
		Scale        float64     `json:"scale"`
		Fact         string      `json:"fact"`
		FactRows     int         `json:"fact_rows"`
		Batches      int         `json:"batches"`
		RowsPerBatch int         `json:"rows_per_batch"`
		Configs      []cfgResult `json:"configs"`
		Speedup      float64     `json:"speedup"`
	}
	var results []benchResult
	for _, name := range names {
		ds, err := h.dataset(name)
		if err != nil {
			return err
		}
		queries := workloads.CovarMatrix(ds)
		opts := h.options()
		opts.TrackCounts = true

		// Probe the default fact/key pick once so the stream generator and
		// every timed configuration agree on the routing.
		probe, err := lmfao.NewShardedSession(ds.DB, queries, opts, lmfao.ShardOptions{Shards: 1})
		if err != nil {
			return err
		}
		factName, key := probe.FactRelation(), probe.ShardKey()
		probe.Close()
		fact := ds.DB.Relation(factName)

		rng := rand.New(rand.NewSource(h.seed))
		stream, err := genShardStream(rng, fact, key, batches+1, rowsPerBatch)
		if err != nil {
			return err
		}

		res := benchResult{Dataset: name, Scale: h.scale, Fact: factName, FactRows: fact.Len(),
			Batches: batches, RowsPerBatch: rowsPerBatch}
		var base float64
		for _, n := range []int{1, shards} {
			elapsed, rows, st, err := runShardStream(ds.DB, queries, opts, n, factName, key, stream)
			if err != nil {
				return fmt.Errorf("%s @%d shards: %w", name, n, err)
			}
			thr := float64(rows) / elapsed.Seconds()
			batchFactor := float64(st.Enqueued) / float64(max(st.Rounds, 1))
			cell := "1.0x"
			if n == 1 {
				base = thr
			} else {
				cell = fmt.Sprintf("%.1fx", thr/base)
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%.0f\t%.1f\t%s\n",
				name, fact.Len(), n, fmtDur(elapsed), thr, batchFactor, cell)
			res.Configs = append(res.Configs, cfgResult{
				Shards: n, ElapsedMS: float64(elapsed.Microseconds()) / 1000,
				RowsPerSec: thr, Rounds: st.Rounds, BatchFactor: batchFactor,
			})
		}
		res.Speedup = res.Configs[len(res.Configs)-1].RowsPerSec / res.Configs[0].RowsPerSec
		results = append(results, res)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runShardStream replays the pre-generated stream against a fresh
// ShardedSession partitioned from the pristine database: full compute, one
// untimed warm-up batch (plan compilation, key indexes), then the timed
// batches pipelined through ApplyAsync so per-shard writers can batch.
func runShardStream(db *lmfao.Database, queries []*lmfao.Query, opts lmfao.Options, n int, factName string, key []lmfao.AttrID, stream []data.Delta) (time.Duration, int, lmfao.ShardedStats, error) {
	sess, err := lmfao.NewShardedSession(db, queries, opts,
		lmfao.ShardOptions{Shards: n, Relation: factName, Key: key})
	if err != nil {
		return 0, 0, lmfao.ShardedStats{}, err
	}
	defer sess.Close()
	if _, err := sess.Run(); err != nil {
		return 0, 0, lmfao.ShardedStats{}, err
	}
	if _, err := sess.Apply(stream[0]); err != nil { // warm-up
		return 0, 0, lmfao.ShardedStats{}, err
	}
	rows := 0
	start := time.Now()
	chans := make([]<-chan lmfao.ApplyResult, 0, len(stream)-1)
	for _, d := range stream[1:] {
		rows += d.InsertRows() + d.DeleteRows()
		chans = append(chans, sess.ApplyAsync(d))
	}
	sess.Wait()
	elapsed := time.Since(start)
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			return 0, 0, lmfao.ShardedStats{}, res.Err
		}
	}
	return elapsed, rows, sess.Stats(), nil
}

// genShardStream builds shard-local update batches: each batch picks one
// existing shard-key tuple and clusters all of its inserts and deletes on it
// (half fresh inserts cloned from live tuples with perturbed numeric
// attributes, half deletions of live tuples), mirroring a per-store feed.
// The stream is generated against an in-memory simulation of the fact
// relation, so replaying it in order from the pristine state never deletes
// a missing tuple.
func genShardStream(rng *rand.Rand, rel *data.Relation, key []lmfao.AttrID, batches, rowsPerBatch int) ([]data.Delta, error) {
	keyPos := make([]int, len(key))
	for i, a := range key {
		p := -1
		for ci, ra := range rel.Attrs {
			if ra == a {
				p = ci
			}
		}
		if p < 0 {
			return nil, fmt.Errorf("shard key attribute %d not in %q", a, rel.Name)
		}
		keyPos[i] = p
	}
	// Simulated live tuples, every column as float64 (discrete values in the
	// generated datasets are small integers, exact in float64), pooled by
	// packed shard-key tuple.
	isInt := make([]bool, len(rel.Cols))
	for ci, c := range rel.Cols {
		isInt[ci] = c.IsInt()
	}
	pools := map[string][][]float64{}
	var keys []string
	for i := 0; i < rel.Len(); i++ {
		row := make([]float64, len(rel.Cols))
		for ci, c := range rel.Cols {
			row[ci] = c.Float(i)
		}
		k := packShardKey(row, keyPos)
		if _, ok := pools[k]; !ok {
			keys = append(keys, k)
		}
		pools[k] = append(pools[k], row)
	}

	toDelta := func(rows [][]float64) []data.Column {
		cols := make([]data.Column, len(rel.Cols))
		for ci := range cols {
			if isInt[ci] {
				vals := make([]int64, len(rows))
				for i, r := range rows {
					vals[i] = int64(r[ci])
				}
				cols[ci] = data.NewIntColumn(vals)
			} else {
				vals := make([]float64, len(rows))
				for i, r := range rows {
					vals[i] = r[ci]
				}
				cols[ci] = data.NewFloatColumn(vals)
			}
		}
		return cols
	}

	out := make([]data.Delta, 0, batches)
	for b := 0; b < batches; b++ {
		k := keys[rng.Intn(len(keys))]
		pool := pools[k]
		nIns := rowsPerBatch / 2
		nDel := rowsPerBatch - nIns
		if m := len(pool) - 1; nDel > m {
			nDel = m
		}
		ins := make([][]float64, nIns)
		for i := range ins {
			src := pool[rng.Intn(len(pool))]
			row := append([]float64(nil), src...)
			for ci := range row {
				if !isInt[ci] {
					row[ci] *= 1 + 0.125*float64(rng.Intn(3)-1)
				}
			}
			ins[i] = row
		}
		del := make([][]float64, nDel)
		for i := range del {
			j := rng.Intn(len(pool))
			del[i] = pool[j]
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		pools[k] = append(pool, ins...)
		d := data.Delta{Relation: rel.Name}
		if nIns > 0 {
			d.Inserts = toDelta(ins)
		}
		if nDel > 0 {
			d.Deletes = toDelta(del)
		}
		out = append(out, d)
	}
	return out, nil
}

func packShardKey(row []float64, keyPos []int) string {
	vals := make([]int64, len(keyPos))
	for i, p := range keyPos {
		vals[i] = int64(row[p])
	}
	return data.PackKey(vals...)
}
