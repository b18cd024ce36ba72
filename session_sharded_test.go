package lmfao_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	lmfao "repro"
	"repro/internal/data"
)

// shardTestDB builds Sales(store, amount) ⋈ Stores(store, region) with the
// given per-row store keys and amounts; every store key maps to region
// regionOf(store). Amounts should be integral so comparisons are exact.
func shardTestDB(t *testing.T, stores []int64, amounts []float64, regionOf func(int64) int64) (*lmfao.Database, lmfao.AttrID, lmfao.AttrID, lmfao.AttrID) {
	t.Helper()
	db := lmfao.NewDatabase()
	store := db.Attr("store", lmfao.Key)
	amount := db.Attr("amount", lmfao.Numeric)
	region := db.Attr("region", lmfao.Categorical)
	if err := db.AddRelation(lmfao.NewRelation("Sales",
		[]lmfao.AttrID{store, amount},
		[]lmfao.Column{lmfao.IntColumn(stores), lmfao.FloatColumn(amounts)})); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	var sk []int64
	var rk []int64
	for s := int64(0); s < 16; s++ { // all store keys deltas may ever use
		if !seen[s] {
			seen[s] = true
			sk = append(sk, s)
			rk = append(rk, regionOf(s))
		}
	}
	if err := db.AddRelation(lmfao.NewRelation("Stores",
		[]lmfao.AttrID{store, region},
		[]lmfao.Column{lmfao.IntColumn(sk), lmfao.IntColumn(rk)})); err != nil {
		t.Fatal(err)
	}
	return db, store, amount, region
}

// shardBatchQueries is the standard three-query batch: a scalar total, a
// group that can span shards (region) and a group that is always
// shard-local (store, the shard key).
func shardBatchQueries(store, amount, region lmfao.AttrID) []*lmfao.Query {
	return []*lmfao.Query{
		lmfao.NewQuery("total", nil, lmfao.Sum(amount), lmfao.Count()),
		lmfao.NewQuery("by_region", []lmfao.AttrID{region}, lmfao.Sum(amount), lmfao.Count()),
		lmfao.NewQuery("by_store", []lmfao.AttrID{store}, lmfao.Sum(amount)),
	}
}

// viewToRows flattens a result (every column, hidden count included) for
// exact comparison.
func viewToRows(v *lmfao.Result) map[string][]float64 {
	out := make(map[string][]float64, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		row := make([]float64, v.Stride)
		for c := 0; c < v.Stride; c++ {
			row[c] = v.Val(i, c)
		}
		out[data.PackKey(v.Key(i)...)] = row
	}
	return out
}

// requireMergedEqual asserts every query's served (for a sharded snapshot,
// merged) output matches the unsharded session's bit-exactly, and that
// Lookup agrees with the served rows.
func requireMergedEqual(t *testing.T, label string, sn lmfao.Queryable, single *lmfao.Session, queries []*lmfao.Query) {
	t.Helper()
	for qi := range queries {
		merged := sn.Result(qi)
		if merged == nil {
			t.Fatalf("%s: query %d: no merged result", label, qi)
		}
		got := viewToRows(merged)
		want := viewToRows(single.Result().Results[qi])
		if len(got) != len(want) {
			t.Fatalf("%s: query %d: merged has %d groups, unsharded %d\nmerged: %v\nwant:   %v",
				label, qi, len(got), len(want), got, want)
		}
		for key, wrow := range want {
			grow, ok := got[key]
			if !ok {
				t.Fatalf("%s: query %d: merged lacks group %v", label, qi, key)
			}
			for c := range wrow {
				if grow[c] != wrow[c] {
					t.Fatalf("%s: query %d group %x col %d: merged %v, unsharded %v",
						label, qi, key, c, grow[c], wrow[c])
				}
			}
			// Lookup must agree on the visible aggregate prefix.
			keyVals := make([]int64, data.KeyLen(key))
			data.UnpackKey(key, keyVals)
			lrow, ok := sn.Lookup(qi, keyVals...)
			if !ok {
				t.Fatalf("%s: query %d: Lookup misses group %v", label, qi, keyVals)
			}
			for c := range lrow {
				if lrow[c] != wrow[c] {
					t.Fatalf("%s: query %d group %v col %d: Lookup %v, want %v",
						label, qi, keyVals, c, lrow[c], wrow[c])
				}
			}
		}
	}
}

// newShardedPair builds an unsharded Session and a ShardedSession over
// clones of the same data and runs both.
func newShardedPair(t *testing.T, shards int, stores []int64, amounts []float64, regionOf func(int64) int64) (*lmfao.ShardedSession, *lmfao.Session, []*lmfao.Query) {
	t.Helper()
	db1, store, amount, region := shardTestDB(t, append([]int64{}, stores...), append([]float64{}, amounts...), regionOf)
	db2, _, _, _ := shardTestDB(t, append([]int64{}, stores...), append([]float64{}, amounts...), regionOf)
	queries := shardBatchQueries(store, amount, region)
	single, err := lmfao.NewSession(db1, queries, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Run(); err != nil {
		t.Fatal(err)
	}
	sharded, err := lmfao.NewShardedSession(db2, queries, lmfao.DefaultOptions(),
		lmfao.ShardOptions{Shards: shards, Relation: "Sales", Key: []lmfao.AttrID{store}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sharded.Close)
	if _, err := sharded.Run(); err != nil {
		t.Fatal(err)
	}
	return sharded, single, queries
}

// newMaintainerPair is newShardedPair for any maintainer kind: "sharded"
// (2 shards), "session", "durable" or "durable-sharded" (2 shards).
func newMaintainerPair(t *testing.T, kind string, stores []int64, amounts []float64, regionOf func(int64) int64) (lmfao.Maintainer, *lmfao.Session, []*lmfao.Query) {
	t.Helper()
	if kind == "sharded" {
		return newShardedPair(t, 2, stores, amounts, regionOf)
	}
	db1, store, amount, region := shardTestDB(t, append([]int64{}, stores...), append([]float64{}, amounts...), regionOf)
	db2, _, _, _ := shardTestDB(t, append([]int64{}, stores...), append([]float64{}, amounts...), regionOf)
	queries := shardBatchQueries(store, amount, region)
	single, err := lmfao.NewSession(db1, queries, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Run(); err != nil {
		t.Fatal(err)
	}
	var m lmfao.Maintainer
	switch kind {
	case "session":
		m, err = lmfao.NewSession(db2, queries, lmfao.DefaultOptions())
	case "durable":
		m, err = lmfao.NewDurableSession(db2, queries, lmfao.DefaultOptions(), lmfao.DurableOptions{}, t.TempDir())
	case "durable-sharded":
		m, err = lmfao.NewDurableShardedSession(db2, queries, lmfao.DefaultOptions(),
			lmfao.ShardOptions{Shards: 2, Relation: "Sales", Key: []lmfao.AttrID{store}}, lmfao.DurableOptions{}, t.TempDir())
	default:
		t.Fatalf("unknown maintainer kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, single, queries
}

// maintainerKinds lists every kind newMaintainerPair builds; the writer
// contract tests run on each, since all four share one writer.
var maintainerKinds = []string{"sharded", "session", "durable", "durable-sharded"}

// applyBoth applies the same updates to a maintainer and the unsharded
// reference session.
func applyBoth(t *testing.T, m lmfao.Maintainer, single *lmfao.Session, updates ...lmfao.Update) {
	t.Helper()
	if _, err := single.Apply(updates...); err != nil {
		t.Fatalf("unsharded apply: %v", err)
	}
	if _, err := m.Apply(updates...); err != nil {
		t.Fatalf("%T apply: %v", m, err)
	}
}

func TestShardedSessionMergedEqualsUnsharded(t *testing.T) {
	stores := []int64{0, 1, 2, 3, 4, 5, 0, 1, 2}
	amounts := []float64{10, 5, 7, 3, 2, 8, 1, 4, 6}
	sharded, single, queries := newShardedPair(t, 3, stores, amounts, func(s int64) int64 { return s % 2 })
	requireMergedEqual(t, "initial", sharded.Head(), single, queries)

	// Fact insert (routes across shards) + dimension-less delete.
	applyBoth(t, sharded, single,
		lmfao.InsertRows("Sales", lmfao.IntColumn([]int64{3, 4, 6}), lmfao.FloatColumn([]float64{11, 12, 13})),
		lmfao.DeleteRows("Sales", lmfao.IntColumn([]int64{0}), lmfao.FloatColumn([]float64{10})),
	)
	requireMergedEqual(t, "after fact updates", sharded.Head(), single, queries)

	// Dimension update: broadcast to every shard. Store 7 gets its first
	// sales rows afterwards, so the new region assignment matters.
	applyBoth(t, sharded, single,
		lmfao.InsertRows("Sales", lmfao.IntColumn([]int64{7, 7}), lmfao.FloatColumn([]float64{20, 21})),
	)
	requireMergedEqual(t, "after broadcast + fact", sharded.Head(), single, queries)
}

func TestShardedSessionEmptyShard(t *testing.T) {
	// One distinct store key: with 4 shards, three are empty (and stay so).
	one := data.ShardOf([]int64{5}, 4)
	stores := []int64{5, 5, 5}
	amounts := []float64{1, 2, 3}
	sharded, single, queries := newShardedPair(t, 4, stores, amounts, func(s int64) int64 { return 0 })
	for i := 0; i < sharded.NumShards(); i++ {
		n := sharded.Shard(i).Engine().DB().Relation("Sales").Len()
		if i == one && n != 3 {
			t.Fatalf("shard %d should hold all 3 fact rows, has %d", i, n)
		}
		if i != one && n != 0 {
			t.Fatalf("shard %d should be empty, has %d fact rows", i, n)
		}
	}
	requireMergedEqual(t, "skewed initial", sharded.Head(), single, queries)

	// Updates against the loaded shard and against a previously empty one.
	applyBoth(t, sharded, single,
		lmfao.InsertRows("Sales", lmfao.IntColumn([]int64{5, 1}), lmfao.FloatColumn([]float64{4, 9})),
	)
	requireMergedEqual(t, "after filling an empty shard", sharded.Head(), single, queries)
}

func TestShardedSessionGroupInOneShardOnly(t *testing.T) {
	// regionOf(s) = s: every region group exists in exactly one shard.
	stores := []int64{0, 1, 2, 3}
	amounts := []float64{10, 20, 30, 40}
	sharded, single, queries := newShardedPair(t, 4, stores, amounts, func(s int64) int64 { return s })
	sn := sharded.Head()
	requireMergedEqual(t, "disjoint groups", sn, single, queries)
	// The per-region groups must come from exactly one shard each.
	for _, s := range stores {
		present := 0
		for i := 0; i < sn.NumShards(); i++ {
			if _, ok := sn.Shard(i).Lookup(1, s); ok {
				present++
			}
		}
		if present != 1 {
			t.Fatalf("region %d present in %d shards, want exactly 1", s, present)
		}
	}
}

func TestShardedSessionDeleteDrivenGroupDrop(t *testing.T) {
	// Store 3 is region 9's only support; deleting its rows must drop the
	// region 9 group from the merged snapshot, exactly as unsharded.
	regionOf := func(s int64) int64 {
		if s == 3 {
			return 9
		}
		return 0
	}
	stores := []int64{0, 1, 3, 3}
	amounts := []float64{1, 2, 30, 31}
	sharded, single, queries := newShardedPair(t, 3, stores, amounts, regionOf)
	if _, ok := sharded.Head().Lookup(1, 9); !ok {
		t.Fatal("region 9 group missing before the delete")
	}
	applyBoth(t, sharded, single,
		lmfao.DeleteRows("Sales", lmfao.IntColumn([]int64{3, 3}), lmfao.FloatColumn([]float64{30, 31})),
	)
	sn := sharded.Head()
	requireMergedEqual(t, "after group-dropping delete", sn, single, queries)
	if _, ok := sn.Lookup(1, 9); ok {
		t.Fatal("region 9 group still visible in the merged snapshot after its last rows were deleted")
	}
	if _, ok := sn.Lookup(2, 3); ok {
		t.Fatal("store 3 group still visible after its last rows were deleted")
	}
}

func TestShardedSessionAsyncPipelineAndStats(t *testing.T) {
	stores := []int64{0, 1, 2, 3}
	amounts := []float64{1, 2, 3, 4}
	sharded, single, queries := newShardedPair(t, 2, stores, amounts, func(s int64) int64 { return s % 2 })

	// Enqueue a burst of insert-only updates without waiting: the per-shard
	// writers may batch and coalesce them into fewer maintenance rounds.
	const rounds = 24
	chans := make([]<-chan lmfao.ApplyResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		store := int64(r % 4)
		u := lmfao.InsertRows("Sales",
			lmfao.IntColumn([]int64{store}), lmfao.FloatColumn([]float64{float64(r)}))
		if _, err := single.Apply(u); err != nil {
			t.Fatal(err)
		}
		chans = append(chans, sharded.ApplyAsync(u))
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	sharded.Wait()
	requireMergedEqual(t, "after async burst", sharded.Head(), single, queries)

	st := sharded.Stats()
	if st.Shards != 2 || st.Enqueued != rounds {
		t.Fatalf("stats = %+v, want Shards=2 Enqueued=%d", st, rounds)
	}
	if st.Applied > st.Enqueued || st.Rounds > st.Applied || st.Rounds == 0 {
		t.Fatalf("implausible coalescing counters: %+v", st)
	}
}

func TestShardedSessionCoalescingPreservesMixedOrder(t *testing.T) {
	// insert(x) then delete(x) in separate queued updates must not be folded
	// into one delta (whose deletes would apply first and fail). Stream many
	// such pairs asynchronously so the writers get the chance to batch them.
	for _, kind := range maintainerKinds {
		t.Run(kind, func(t *testing.T) {
			stores := []int64{0}
			amounts := []float64{1}
			m, single, queries := newMaintainerPair(t, kind, stores, amounts, func(s int64) int64 { return 0 })
			var chans []<-chan lmfao.ApplyResult
			for r := 0; r < 10; r++ {
				v := float64(100 + r)
				ins := lmfao.InsertRows("Sales", lmfao.IntColumn([]int64{2}), lmfao.FloatColumn([]float64{v}))
				del := lmfao.DeleteRows("Sales", lmfao.IntColumn([]int64{2}), lmfao.FloatColumn([]float64{v}))
				if _, err := single.Apply(ins, del); err != nil {
					t.Fatal(err)
				}
				chans = append(chans, m.ApplyAsync(ins), m.ApplyAsync(del))
			}
			for i, ch := range chans {
				if res := <-ch; res.Err != nil {
					t.Fatalf("async update %d: %v", i, res.Err)
				}
			}
			requireMergedEqual(t, "after insert/delete pairs", m.Snapshot(), single, queries)
		})
	}
}

func TestShardedSessionErrorAttribution(t *testing.T) {
	// A bad update (delete of a missing tuple) must deliver its error to its
	// own ApplyAsync call only; valid calls enqueued before it — possibly
	// coalesced into the same maintenance round — must report success, since
	// their updates commit either way. The writer keeps serving and recovers.
	for _, kind := range maintainerKinds {
		t.Run(kind, func(t *testing.T) {
			stores := []int64{0, 1, 2, 3}
			amounts := []float64{1, 2, 3, 4}
			m, single, queries := newMaintainerPair(t, kind, stores, amounts, func(s int64) int64 { return s % 2 })

			var goodChans []<-chan lmfao.ApplyResult
			for r := 0; r < 8; r++ {
				u := lmfao.InsertRows("Sales",
					lmfao.IntColumn([]int64{int64(r % 4)}), lmfao.FloatColumn([]float64{float64(10 + r)}))
				if _, err := single.Apply(u); err != nil {
					t.Fatal(err)
				}
				goodChans = append(goodChans, m.ApplyAsync(u))
			}
			bad := lmfao.DeleteRows("Sales",
				lmfao.IntColumn([]int64{9}), lmfao.FloatColumn([]float64{999}))
			badCh := m.ApplyAsync(bad)
			for i, ch := range goodChans {
				if res := <-ch; res.Err != nil {
					t.Fatalf("valid call %d contaminated by the bad update's error: %v", i, res.Err)
				}
			}
			if res := <-badCh; res.Err == nil {
				t.Fatal("bad delete must deliver an error to its own call")
			}
			m.Wait()
			requireMergedEqual(t, "after error round", m.Snapshot(), single, queries)

			// The writer recovers: later updates apply normally.
			applyBoth(t, m, single,
				lmfao.InsertRows("Sales", lmfao.IntColumn([]int64{1}), lmfao.FloatColumn([]float64{50})))
			requireMergedEqual(t, "after recovery", m.Snapshot(), single, queries)
		})
	}
}

func TestShardedSessionCloseAndErrors(t *testing.T) {
	stores := []int64{0, 1}
	amounts := []float64{1, 2}
	sharded, _, _ := newShardedPair(t, 2, stores, amounts, func(s int64) int64 { return 0 })
	sharded.Close()
	sharded.Close() // idempotent
	if _, err := sharded.Apply(lmfao.InsertRows("Sales",
		lmfao.IntColumn([]int64{1}), lmfao.FloatColumn([]float64{3}))); err == nil {
		t.Fatal("Apply after Close must fail")
	}

	db, store, amount, region := shardTestDB(t, []int64{0}, []float64{1}, func(int64) int64 { return 0 })
	queries := shardBatchQueries(store, amount, region)
	if _, err := lmfao.NewShardedSession(db, queries, lmfao.DefaultOptions(),
		lmfao.ShardOptions{Shards: 0}); err == nil {
		t.Fatal("0 shards must fail")
	}
	if _, err := lmfao.NewShardedSession(db, queries, lmfao.DefaultOptions(),
		lmfao.ShardOptions{Shards: 2, Relation: "nope"}); err == nil {
		t.Fatal("unknown fact relation must fail")
	}
	if _, err := lmfao.NewShardedSession(db, queries, lmfao.DefaultOptions(),
		lmfao.ShardOptions{Shards: 2, Relation: "Sales", Key: []lmfao.AttrID{amount}}); err == nil {
		t.Fatal("numeric shard key must fail")
	}
}

func TestShardedSessionDefaults(t *testing.T) {
	// Sales must out-size the 16-row Stores dimension for the default pick.
	stores := make([]int64, 21)
	amounts := make([]float64, 21)
	for i := range stores {
		stores[i] = int64(i % 4)
		amounts[i] = 1
	}
	db, store, amount, region := shardTestDB(t, stores, amounts, func(s int64) int64 { return s % 2 })
	queries := shardBatchQueries(store, amount, region)
	// No Relation, no Key: must pick Sales (largest) sharded on store (the
	// join key with Stores).
	sharded, err := lmfao.NewShardedSession(db, queries, lmfao.DefaultOptions(), lmfao.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if sharded.FactRelation() != "Sales" {
		t.Fatalf("default fact = %q, want Sales", sharded.FactRelation())
	}
	if k := sharded.ShardKey(); len(k) != 1 || k[0] != store {
		t.Fatalf("default shard key = %v, want [%d]", k, store)
	}
	if _, err := sharded.Run(); err != nil {
		t.Fatal(err)
	}
	sn := sharded.Head()
	if sn == nil || sn.NumQueries() != len(queries) {
		t.Fatal("snapshot missing after Run")
	}
	if vv := sn.Versions(); len(vv) != 2 {
		t.Fatalf("shard vector has %d components, want 2", len(vv))
	}
	if ep := sn.Epochs(); len(ep) != 2 || ep[0] == 0 || ep[1] == 0 {
		t.Fatalf("epochs = %v, want two nonzero", ep)
	}
	total, ok := sn.Lookup(0)
	if !ok || total[0] != 21 || total[1] != 21 {
		t.Fatalf("scalar lookup = %v ok=%v, want [21 21]", total, ok)
	}
}

// TestShardedSessionRunCloseRace is the regression test for Run racing
// Close: a concurrent Close must never tear the session down while an
// accepted Run executes against the shards. Run is a queued job on every
// shard writer, accepted or refused atomically against Close, and Close
// drains accepted jobs; this test hammers the pair under the race detector
// and pins the post-Close contract.
func TestShardedSessionRunCloseRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		db, _, amount, region := shardTestDB(t,
			[]int64{0, 1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5, 6},
			func(s int64) int64 { return s % 2 })
		queries := []*lmfao.Query{
			lmfao.NewQuery("total", nil, lmfao.Sum(amount)),
			lmfao.NewQuery("by_region", []lmfao.AttrID{region}, lmfao.Count()),
		}
		s, err := lmfao.NewShardedSession(db, queries, lmfao.DefaultOptions(), lmfao.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				sn, err := s.Run()
				if err != nil {
					if !errors.Is(err, lmfao.ErrSessionClosed) {
						t.Errorf("Run failed with %v, want ErrSessionClosed", err)
					}
					return
				}
				if sn == nil {
					t.Error("successful Run returned a nil snapshot")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			runtime.Gosched()
			s.Close()
		}()
		wg.Wait()
		if _, err := s.Run(); !errors.Is(err, lmfao.ErrSessionClosed) {
			t.Fatalf("Run after Close: err = %v, want ErrSessionClosed", err)
		}
		// The last published snapshot must survive the shutdown intact.
		sn := s.Head()
		if sn == nil {
			t.Fatal("snapshot gone after Close")
		}
		if _, ok := sn.Lookup(0); !ok {
			t.Fatal("scalar lookup failed on post-Close snapshot")
		}
	}
}
