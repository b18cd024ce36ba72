package lmfao

import (
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
)

// ShardVector is the version metadata of a sharded snapshot: one
// VersionVector per shard, indexed by shard id (see ivm.ShardVector).
type ShardVector = ivm.ShardVector

// ShardOptions configures NewShardedSession.
type ShardOptions struct {
	// Shards is the number of partitions (and independent shard writers).
	// Must be at least 1; 1 yields a functional single-shard session.
	Shards int
	// Relation names the fact relation to hash-partition. Empty selects the
	// largest relation in the database — the fact table in every
	// star/snowflake schema this engine targets.
	Relation string
	// Key lists the discrete attributes the fact relation is hash-partitioned
	// on (data.ShardOf over the tuple's values). Nil selects the first
	// attribute in the fact's schema order that is discrete and shared with
	// another relation — a join key, so co-partitioned groups stay
	// shard-local where possible.
	Key []AttrID
}

// ShardedStats are cumulative fan-out counters of a ShardedSession,
// reporting how much batching the shard writers achieved: Enqueued counts
// shard-local updates the writers took from their queues (after routing),
// Applied the updates actually applied after coalescing, Rounds the
// maintenance rounds that covered them. Enqueued/Rounds is the average
// batch size the coalescing achieved.
type ShardedStats struct {
	Shards   int
	Enqueued int64
	Applied  int64
	Rounds   int64
}

// ShardedSession scales maintenance throughput beyond a single Session's
// one-writer limit: the fact relation is hash-partitioned on a join key into
// N shard databases (dimension relations replicated), each maintained by its
// own Session writer. Updates fan out by key — a fact update routes each
// tuple to its hash shard, a dimension update broadcasts to every shard —
// and queued updates batch/coalesce per shard, amortizing per-round
// maintenance overhead under high-rate streams.
//
// Reads merge per-shard results: every join tuple of the full database lives
// in exactly one shard (the fact partitions; replicated dimensions join
// identically everywhere), so aggregate values add across shards and group
// sets union — Snapshot returns a ShardedSnapshot whose Lookup and Result
// perform exactly that combination (moo.CombineViews).
//
// # Consistency
//
// Each shard keeps the full snapshot-isolation guarantees of its Session:
// shard components of a ShardedSnapshot are immutable committed states,
// acquired lock-free. Cross-shard, the snapshot is a vector of per-shard
// states (Versions returns the matching ShardVector), not a single global
// prefix: while a broadcast (dimension) update is mid-fan-out, some shards
// may reflect it before others. Fact-only streams have no such window —
// per-shard sub-streams touch disjoint data, so every shard-state vector
// equals some interleaving of the applied updates. To observe a fully
// drained state, call Wait (or use the synchronous Apply) before Snapshot.
//
// The source database passed to NewShardedSession is copied, not adopted:
// the sharded session owns its shard databases, and later mutations of the
// source are invisible to it.
type ShardedSession struct {
	shardSet
}

// shardSet is the routing layer both sharded kinds share: the fact
// relation's partitioning plus one writer per shard.
type shardSet struct {
	writers  []*Session
	factName string
	key      []AttrID
	// factSchema carries the fact relation's schema for delta routing: a
	// detached zero-row relation, so routing reads never race with shard
	// writers mutating the live instances.
	factSchema *data.Relation
	// extend, when set, may add jobs to an Apply call and give it a done
	// step: the durable kind's coordinated checkpoint policy.
	extend func([]*job) ([]*job, func(*ApplyResult))
}

// NewShardedSession partitions db per so (data.PartitionDatabase: fact
// hash-partitioned, everything else replicated) and builds one maintained
// Session per shard over the query batch, each with its own engine and join
// tree. Call Run once, then stream updates through Apply/ApplyAsync.
func NewShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions) (*ShardedSession, error) {
	set, shardDBs, err := partition(db, so.Shards, so.Relation, so.Key)
	if err != nil {
		return nil, err
	}
	for i, sdb := range shardDBs {
		if set.writers[i], err = NewSession(sdb, queries, opts); err != nil {
			return nil, fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
	}
	return &ShardedSession{set}, nil
}

// partition applies ShardOptions' defaulting rules — the fact relation is
// the largest when unnamed, the shard key its first discrete join
// attribute when unset — and partitions db. The returned set's writers are
// left for the caller to build over the shard databases.
func partition(db *Database, shards int, factName string, key []AttrID) (shardSet, []*Database, error) {
	if shards < 1 {
		return shardSet{}, nil, fmt.Errorf("lmfao: sharded session needs at least 1 shard, got %d", shards)
	}
	if factName == "" {
		for _, r := range db.Relations() {
			if factRel := db.Relation(factName); factRel == nil || r.Len() > factRel.Len() {
				factName = r.Name
			}
		}
		if factName == "" {
			return shardSet{}, nil, fmt.Errorf("lmfao: sharded session over an empty database")
		}
	}
	factRel := db.Relation(factName)
	if factRel == nil {
		return shardSet{}, nil, fmt.Errorf("lmfao: sharded session: unknown fact relation %q", factName)
	}
	if key == nil {
		if key = defaultShardKey(db, factRel); key == nil {
			return shardSet{}, nil, fmt.Errorf("lmfao: sharded session: relation %q has no discrete attribute to shard on", factName)
		}
	}
	shardDBs, err := data.PartitionDatabase(db, factName, key, shards)
	if err != nil {
		return shardSet{}, nil, err
	}
	return shardSet{writers: make([]*Session, shards), factName: factName,
		key: append([]AttrID(nil), key...), factSchema: emptySchemaRelation(factRel)}, shardDBs, nil
}

// emptySchemaRelation clones a relation's schema with zero-row typed
// columns: a safe, immutable carrier for block validation and routing.
func emptySchemaRelation(r *data.Relation) *data.Relation {
	cols := make([]Column, len(r.Cols))
	for i, c := range r.Cols {
		if c.IsInt() {
			cols[i] = data.NewIntColumn(nil)
		} else {
			cols[i] = data.NewFloatColumn(nil)
		}
	}
	return data.NewRelation(r.Name, append([]AttrID(nil), r.Attrs...), cols)
}

// defaultShardKey picks the first discrete fact attribute (schema order)
// shared with another relation — a join key — falling back to the first
// discrete attribute.
func defaultShardKey(db *Database, fact *data.Relation) []AttrID {
	var firstDiscrete []AttrID
	for _, a := range fact.Attrs {
		c, _ := fact.Col(a)
		if !c.IsInt() {
			continue
		}
		if firstDiscrete == nil {
			firstDiscrete = []AttrID{a}
		}
		for _, r := range db.Relations() {
			if r.Name != fact.Name && r.HasAttr(a) {
				return []AttrID{a}
			}
		}
	}
	return firstDiscrete
}

// NumShards returns the shard count.
func (s *shardSet) NumShards() int { return len(s.writers) }

// Shard returns shard i's underlying Session — read it (Snapshot) freely;
// writing through it directly (Apply/Run/Close) would bypass routing and
// break the partition invariant.
func (s *ShardedSession) Shard(i int) *Session { return s.writers[i] }

// FactRelation returns the name of the hash-partitioned relation.
func (s *shardSet) FactRelation() string { return s.factName }

// ShardKey returns the attributes the fact relation is partitioned on.
func (s *shardSet) ShardKey() []AttrID { return append([]AttrID(nil), s.key...) }

// Stats returns the cumulative fan-out counters.
func (s *ShardedSession) Stats() ShardedStats {
	st := ShardedStats{Shards: len(s.writers)}
	for _, w := range s.writers {
		st.Enqueued += w.enqueued.Load()
		st.Applied += w.applied.Load()
		st.Rounds += w.rounds.Load()
	}
	return st
}

// Run computes the batch on every shard (in parallel) and returns the first
// merged snapshot. Like Session.Run it can be called again to force a full
// recompute everywhere.
//
// Run is atomic across shards: every shard stages its recomputed result
// first, and the per-shard snapshots are published only when all of them
// succeeded. A failed Run therefore changes nothing observable — every
// shard keeps serving its previous snapshot, and Head never merges
// recomputed shards with stale ones.
func (s *shardSet) Run() (Queryable, error) { return s.run(nil) }

// run submits one Run job per shard as a single staged call.
func (s *shardSet) run(done func(*ApplyResult)) (Queryable, error) {
	jobs := make([]*job, len(s.writers))
	for i, w := range s.writers {
		jobs[i] = &job{w: w, kind: runJob}
	}
	if err := (<-submit(s.writers, jobs, done)).Err; err != nil {
		return nil, err
	}
	return s.Snapshot(), nil
}

// ApplyAsync routes the updates to their shards, queues them on the shard
// writers and returns a buffered channel delivering one aggregate result
// when every involved shard has committed. Queued updates of consecutive
// calls may be batched and coalesced per shard before maintenance (see
// coalesceUpdates), so the delivered Stats describe the maintenance rounds
// that covered this call's updates. Per shard, updates commit in
// submission order; across shards there is no global order (see the
// consistency contract on ShardedSession). A DurableShardedSession's call
// also logs each shard's slice before applying it, and the call that
// crosses the coordinated checkpoint interval delivers its result after
// the checkpoint round.
//
// Error contract: a delivered Err means at least one of THIS call's updates
// did not commit on some shard — calls whose updates all landed in failed
// rounds' committed prefixes receive Err == nil even when a later queued
// update broke a round. A failed shard keeps serving its last committed
// snapshot and recovers on its next round, like a plain Session. Unlike a
// plain Session, a failed update is not atomic ACROSS shards: an update
// whose tuples route to several shards can commit its slice on some shards
// and fail on another (e.g. a delete block whose missing tuple hashes to one
// shard — the siblings' slices validate independently and commit). Do not
// blindly re-submit a failed multi-shard update; reconcile against
// Snapshot() first, or keep delete batches shard-local (single-key batches
// route to one shard by construction).
func (s *shardSet) ApplyAsync(updates ...Update) <-chan ApplyResult {
	jobs, err := s.route(updates)
	if err != nil {
		return failed(err)
	}
	var done func(*ApplyResult)
	if s.extend != nil {
		jobs, done = s.extend(jobs)
	}
	return submit(s.writers, jobs, done)
}

// route splits one call's updates into one Apply job per involved shard,
// preserving relative order: fact updates partition tuple-by-tuple via
// data.RouteDelta, every other update is broadcast to all shards (dimension
// relations are replicated).
func (s *shardSet) route(updates []Update) ([]*job, error) {
	perShard := make([][]Update, len(s.writers))
	for _, u := range updates {
		if u.Relation != s.factName {
			for sh := range perShard {
				perShard[sh] = append(perShard[sh], u)
			}
			continue
		}
		routed, err := data.RouteDelta(s.factSchema, u, s.key, len(s.writers))
		if err != nil {
			return nil, err
		}
		for sh, ru := range routed {
			if !ru.Empty() {
				perShard[sh] = append(perShard[sh], ru)
			}
		}
	}
	var jobs []*job
	for sh, list := range perShard {
		if list != nil {
			jobs = append(jobs, &job{w: s.writers[sh], kind: applyJob, updates: list})
		}
	}
	return jobs, nil
}

// Apply routes the updates, waits for every involved shard to commit and
// returns the per-round maintenance stats (shard completion order) plus the
// first error. It is ApplyAsync plus the wait, so a returned Snapshot
// reflects all of this call's updates on every shard.
func (s *shardSet) Apply(updates ...Update) ([]*ApplyStats, error) {
	res := <-s.ApplyAsync(updates...)
	return res.Stats, res.Err
}

// Wait blocks until every call accepted so far has been applied and
// committed on every shard. Concurrent producers make the drained condition
// a moving target — quiesce them first.
func (s *shardSet) Wait() {
	for _, w := range s.writers {
		w.Wait()
	}
}

// Close stops the shard writers after draining their queues. Further
// Run/Apply/ApplyAsync calls fail; snapshots and shard sessions stay
// readable. Close is idempotent.
func (s *ShardedSession) Close() {
	for _, w := range s.writers {
		w.Close()
	}
}

// ShardedSnapshot is one merged, immutable view of a sharded session: a
// vector of per-shard Snapshots, each individually committed and immutable
// (see the consistency contract on ShardedSession). Merging happens on
// read: Lookup sums per-shard rows, Result materializes the union of a
// query's per-shard outputs (lazily, cached on the snapshot).
//
// ShardedSnapshot implements Queryable and Requerier: it is the sharded
// read side of the serving API, so applications written against Queryable
// learn from a live sharded session exactly as from an unsharded one. The
// zero value (no shard components) serves an empty batch: NumQueries is 0,
// Lookup misses, Result returns nil.
type ShardedSnapshot struct {
	shards []*Snapshot

	// mergeMu guards the lazy merged-view cache. Reads through Lookup and
	// the per-shard components never take it.
	mergeMu sync.Mutex
	merged  []*Result
}

// Snapshot returns the current merged snapshot as a Queryable — one
// lock-free atomic load per shard — or nil before Run has completed on
// every shard. Shard components are consistent per shard; call Wait first
// to pin a fully drained state. For the concrete *ShardedSnapshot
// (NumShards, Shard, Epochs) use Head.
func (s *shardSet) Snapshot() Queryable {
	if sn := s.Head(); sn != nil {
		return sn
	}
	return nil
}

// Head returns the current merged snapshot as a concrete *ShardedSnapshot
// (nil before Run has completed on every shard) — Snapshot with typed
// access to the shard components. Same lock-free acquisition contract.
func (s *shardSet) Head() *ShardedSnapshot {
	shards := make([]*Snapshot, len(s.writers))
	for i, w := range s.writers {
		if shards[i] = w.Head(); shards[i] == nil {
			return nil
		}
	}
	return &ShardedSnapshot{shards: shards}
}

// NumShards returns the number of shard components.
func (sn *ShardedSnapshot) NumShards() int { return len(sn.shards) }

// Shard returns shard i's component snapshot.
func (sn *ShardedSnapshot) Shard(i int) *Snapshot { return sn.shards[i] }

// NumQueries returns the number of queries in the session batch (0 for a
// snapshot with no shard components).
func (sn *ShardedSnapshot) NumQueries() int {
	if len(sn.shards) == 0 {
		return 0
	}
	return sn.shards[0].NumQueries()
}

// Epochs returns each shard's publication epoch, indexed by shard id.
func (sn *ShardedSnapshot) Epochs() []uint64 {
	out := make([]uint64, len(sn.shards))
	for i, sh := range sn.shards {
		out[i] = sh.Epoch()
	}
	return out
}

// Versions returns the shard vector pinning each component's base-relation
// versions.
func (sn *ShardedSnapshot) Versions() ShardVector {
	out := make(ShardVector, len(sn.shards))
	for i, sh := range sn.shards {
		out[i] = sh.VersionVector()
	}
	return out
}

// Lookup merges one group's aggregates across shards: per-shard values add
// (each shard holds a disjoint partition of the join, so the sum is the
// unsharded aggregate) and ok is false only when the group is absent from
// every shard (always, for a snapshot with no shard components). Like
// Snapshot.Lookup it is lock-free, probes pre-built indexes and returns
// exactly the query's aggregate columns.
//
// Queries with monoid aggregates are the exception: their columns do not
// add across shards (the shard-wise MIN of MINs is fine, but DISTINCT
// counts and top-k buffers are not), so multi-shard lookups route through
// the cached merged view — first access per query pays the merge and takes
// the snapshot's merge lock.
func (sn *ShardedSnapshot) Lookup(queryIdx int, key ...int64) ([]float64, bool) {
	if len(sn.shards) > 1 && sn.shards[0].res.Plan.Monoids[queryIdx] != nil {
		v, err := sn.MergedResult(queryIdx)
		if err != nil {
			return nil, false
		}
		i := v.Lookup(key...)
		if i < 0 {
			return nil, false
		}
		n := sn.shards[0].res.Plan.VisibleCols(queryIdx)
		out := make([]float64, n)
		for c := 0; c < n; c++ {
			out[c] = v.Val(i, c)
		}
		return out, true
	}
	var out []float64
	for _, sh := range sn.shards {
		row, ok := sh.Lookup(queryIdx, key...)
		if !ok {
			continue
		}
		if out == nil {
			out = row
			continue
		}
		for c := range out {
			out[c] += row[c]
		}
	}
	return out, out != nil
}

// Result returns query queryIdx's full merged output: the union of the
// per-shard group sets with aggregates (and the hidden tuple-count column)
// summed — the view a single unsharded session would serve, read-only. The
// merge happens lazily on first access and is cached on the snapshot, so
// repeated reads (an application assembling its statistics, say) pay the
// row-copy cost once; a single-shard snapshot shares the shard's view
// directly. Returns nil for a snapshot with no shard components. For point
// reads use Lookup, which touches only the probed groups and no cache.
func (sn *ShardedSnapshot) Result(queryIdx int) *Result {
	v, _ := sn.MergedResult(queryIdx)
	return v
}

// MergedResult is Result with the merge error exposed: a non-nil error
// means the snapshot has no shard components or the per-shard outputs
// disagree on schema (impossible for snapshots of one session's batch).
func (sn *ShardedSnapshot) MergedResult(queryIdx int) (*Result, error) {
	if len(sn.shards) == 0 {
		return nil, fmt.Errorf("lmfao: sharded snapshot has no shard components")
	}
	if nq := sn.NumQueries(); queryIdx < 0 || queryIdx >= nq {
		return nil, fmt.Errorf("lmfao: query index %d out of range (batch has %d queries)", queryIdx, nq)
	}
	if len(sn.shards) == 1 {
		return sn.shards[0].Result(queryIdx), nil
	}
	sn.mergeMu.Lock()
	defer sn.mergeMu.Unlock()
	if sn.merged == nil {
		sn.merged = make([]*Result, sn.NumQueries())
	}
	if v := sn.merged[queryIdx]; v != nil {
		return v, nil
	}
	parts := make([]*moo.BatchResult, len(sn.shards))
	for i, sh := range sn.shards {
		parts[i] = sh.res
	}
	v, err := mergeQuery(parts, queryIdx)
	if err != nil {
		return nil, err
	}
	v.EnsureIndex()
	sn.merged[queryIdx] = v
	return v, nil
}

// mergeQuery merges user query qi's output across per-shard batch results
// of one batch. Plain outputs combine directly (moo.CombineViews). Monoid
// columns must never be summed, so for a monoid query the merge combines
// the per-shard raw output and support views — all plain count/sum views —
// and folds the merged supports into the user-visible view. Query indexes
// are identical across shards (plan expansion is deterministic on the
// query list), but view IDs may differ per shard (statistics-driven
// roots), so each shard's views are resolved through its own plan.
func mergeQuery(parts []*moo.BatchResult, qi int) (*moo.ViewData, error) {
	combine := func(view func(*moo.BatchResult) *moo.ViewData) (*moo.ViewData, error) {
		per := make([]*moo.ViewData, len(parts))
		for i, p := range parts {
			per[i] = view(p)
		}
		return moo.CombineViews(per)
	}
	plan := parts[0].Plan
	if plan.Monoids[qi] == nil {
		return combine(func(p *moo.BatchResult) *moo.ViewData { return p.Results[qi] })
	}
	mat := make([]*moo.ViewData, len(plan.Views))
	merge := func(j int) error {
		if mat[plan.OutputView[j]] != nil {
			return nil // a support shared by several monoid columns
		}
		v, err := combine(func(p *moo.BatchResult) *moo.ViewData { return p.Materialized[p.Plan.OutputView[j]] })
		mat[plan.OutputView[j]] = v
		return err
	}
	if err := merge(qi); err != nil {
		return nil, err
	}
	for _, col := range plan.Monoids[qi].Cols {
		if err := merge(col.Support); err != nil {
			return nil, err
		}
	}
	return moo.AssembleQuery(plan, qi, mat)
}

// Requery evaluates a fresh ad-hoc batch across every shard and merges the
// per-query outputs (the Requerier hook; LearnDecisionTreeFrom depends on
// it). Each shard's evaluation serializes with that shard's writer and the
// shards run in parallel; like Snapshot.Requery, the result reflects each
// shard's current base data, which may be newer than this snapshot's pinned
// components — quiesce updates (Wait) when exact agreement matters.
func (sn *ShardedSnapshot) Requery(queries []*Query) ([]*Result, error) {
	if len(sn.shards) == 0 {
		return nil, fmt.Errorf("lmfao: sharded snapshot has no shard components")
	}
	for i, sh := range sn.shards {
		if sh.requery == nil {
			return nil, fmt.Errorf("lmfao: shard %d snapshot has no requery hook", i)
		}
	}
	parts := make([]*moo.BatchResult, len(sn.shards))
	errs := make([]error, len(sn.shards))
	var wg sync.WaitGroup
	for i, sh := range sn.shards {
		wg.Add(1)
		go func(i int, sh *Snapshot) {
			defer wg.Done()
			parts[i], errs[i] = sh.requery(queries)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
	}
	out := make([]*Result, parts[0].Plan.UserQueries)
	for qi := range out {
		v, err := mergeQuery(parts, qi)
		if err != nil {
			return nil, err
		}
		out[qi] = v
	}
	return out, nil
}
