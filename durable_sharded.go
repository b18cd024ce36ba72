package lmfao

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// DurableShardedSession is the durable counterpart of ShardedSession: the
// fact relation is hash-partitioned across N shards, each maintained by its
// own DurableSession with its own write-ahead log and checkpoints under
// dir/shard-N/. A manifest (dir/MANIFEST.json) records the partitioning so
// recovery re-partitions the pristine database identically, and every
// coordinated checkpoint appends one line to dir/CHECKPOINTS.jsonl with the
// per-shard LSNs and the merged ShardVector it covers.
//
// The shards are the same writers a ShardedSession routes to, with the WAL
// hooks installed, so queued updates coalesce and Run is staged and atomic
// across shards exactly as there. Each shard logs the updates it applies,
// so per-shard recovery is deterministic.
//
// A coordinated checkpoint queues one Checkpoint job on every shard, behind
// the work accepted before it, and appends the checkpoint-log line once all
// of them finished. Automatic checkpoints trigger on the total update count
// across shards (DurableOptions.CheckpointEvery) and ride on the Apply call
// that crosses the interval; the per-shard automatic policy is disabled in
// favor of this coordination.
//
// DurableShardedSession implements Maintainer.
type DurableShardedSession struct {
	shardSet
	shards []*DurableSession
	dir    string
	opts   DurableOptions

	// sinceCkpt counts routed updates since the last coordinated
	// checkpoint was queued; recMu serializes checkpoint-log appends.
	sinceCkpt atomic.Int64
	recMu     sync.Mutex
}

// shardManifest is the durable record of the partitioning, without which a
// recovery could not re-partition the pristine database identically.
type shardManifest struct {
	Shards int     `json:"shards"`
	Fact   string  `json:"fact"`
	Key    []int32 `json:"key"`
}

// ShardCheckpointRecord is one line of a durable sharded session's
// checkpoint log (dir/CHECKPOINTS.jsonl): the per-shard WAL positions of
// one coordinated checkpoint round and the merged version vector the
// checkpointed states reflect.
type ShardCheckpointRecord struct {
	// LSNs holds each shard's last committed LSN at the checkpoint.
	LSNs []uint64 `json:"lsns"`
	// Vector is the merged ShardVector the checkpoint covers.
	Vector ShardVector `json:"vector"`
}

func manifestPath(dir string) string    { return filepath.Join(dir, "MANIFEST.json") }
func checkpointLog(dir string) string   { return filepath.Join(dir, "CHECKPOINTS.jsonl") }
func shardDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", i)) }

// NewDurableShardedSession partitions db per so and builds one
// DurableSession per shard under dir/shard-N/, writing the partitioning
// manifest. The directory must not already hold durable sharded state; use
// RecoverShardedSession for that.
func NewDurableShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions, dopts DurableOptions, dir string) (*DurableShardedSession, error) {
	if _, err := os.Stat(manifestPath(dir)); err == nil {
		return nil, fmt.Errorf("lmfao: %s already holds durable sharded state; use RecoverShardedSession", dir)
	}
	set, shardDBs, err := partition(db, so.Shards, so.Relation, so.Key)
	if err != nil {
		return nil, err
	}
	s, err := buildDurableShards(set, shardDBs, dopts, dir, func(i int, sdb *Database, sdopts DurableOptions) (*DurableSession, error) {
		return NewDurableSession(sdb, queries, opts, sdopts, shardDir(dir, i))
	})
	if err != nil {
		return nil, err
	}
	m := shardManifest{Shards: so.Shards, Fact: set.factName, Key: make([]int32, len(set.key))}
	for i, a := range set.key {
		m.Key[i] = int32(a)
	}
	if err := writeManifest(dir, m); err != nil {
		s.Kill()
		return nil, err
	}
	return s, nil
}

// RecoverShardedSession rebuilds a durable sharded session from dir. Like
// RecoverSession, the caller supplies the pristine initial database, query
// batch and options; the manifest's partitioning re-partitions the pristine
// base exactly as creation did, and each shard recovers independently from
// its own checkpoint and log.
func RecoverShardedSession(dir string, db *Database, queries []*Query, opts Options, dopts DurableOptions) (*DurableShardedSession, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if db.Relation(m.Fact) == nil {
		return nil, fmt.Errorf("lmfao: manifest fact relation %q not in database — recover with the session's original database", m.Fact)
	}
	key := make([]AttrID, len(m.Key))
	for i, a := range m.Key {
		key[i] = AttrID(a)
	}
	set, shardDBs, err := partition(db, m.Shards, m.Fact, key)
	if err != nil {
		return nil, err
	}
	return buildDurableShards(set, shardDBs, dopts, dir, func(i int, sdb *Database, sdopts DurableOptions) (*DurableSession, error) {
		return RecoverSession(shardDir(dir, i), sdb, queries, opts, sdopts)
	})
}

// buildDurableShards opens one durable shard per shard database (automatic
// per-shard checkpoints off: the sharded layer coordinates them), killing
// the ones already open if a later one fails.
func buildDurableShards(set shardSet, shardDBs []*Database, dopts DurableOptions, dir string,
	open func(int, *Database, DurableOptions) (*DurableSession, error)) (*DurableShardedSession, error) {
	s := &DurableShardedSession{shardSet: set, shards: make([]*DurableSession, len(shardDBs)), dir: dir, opts: dopts.norm()}
	s.extend = s.checkpointPolicy
	sdopts := dopts
	sdopts.CheckpointEvery = -1
	for i, sdb := range shardDBs {
		shard, err := open(i, sdb, sdopts)
		if err != nil {
			for _, sh := range s.shards[:i] {
				sh.Kill()
			}
			return nil, fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
		s.shards[i], s.writers[i] = shard, shard.writer
	}
	return s, nil
}

// Shard returns shard i's DurableSession — read it freely; writing through
// it directly would bypass routing and break the partition invariant.
func (s *DurableShardedSession) Shard(i int) *DurableSession { return s.shards[i] }

// Dir returns the durable state directory.
func (s *DurableShardedSession) Dir() string { return s.dir }

// Run computes the batch on every shard, staged and atomic across shards
// like ShardedSession.Run; each shard then writes its own covering
// checkpoint, and one coordinated checkpoint line is recorded before Run
// returns the first merged snapshot.
func (s *DurableShardedSession) Run() (Queryable, error) { return s.run(s.record) }

// checkpointPolicy is the Apply-call extension that runs the coordinated
// checkpoint policy: the call whose updates cross CheckpointEvery routed
// updates also queues a checkpoint round.
func (s *DurableShardedSession) checkpointPolicy(jobs []*job) ([]*job, func(*ApplyResult)) {
	n := int64(0)
	for _, j := range jobs {
		n += int64(len(j.updates))
	}
	if every := int64(s.opts.CheckpointEvery); every <= 0 || s.sinceCkpt.Add(n) < every {
		return jobs, nil
	}
	s.sinceCkpt.Store(0)
	return s.withCheckpoint(jobs), s.record
}

// withCheckpoint appends one Checkpoint job per shard to a call's jobs.
func (s *DurableShardedSession) withCheckpoint(jobs []*job) []*job {
	for _, w := range s.writers {
		jobs = append(jobs, &job{w: w, kind: checkpointJob})
	}
	return jobs
}

// Checkpoint forces one coordinated checkpoint round: every shard
// checkpoints once the work accepted before the call has committed, then
// the covered per-shard LSNs and merged vector are appended to the
// checkpoint log.
func (s *DurableShardedSession) Checkpoint() error {
	return (<-submit(s.writers, s.withCheckpoint(nil), s.record)).Err
}

// record appends the shards' newest checkpoint marks to the checkpoint log
// — the done step of a checkpoint call, skipped when a part failed.
func (s *DurableShardedSession) record(res *ApplyResult) {
	if res.Err != nil {
		return
	}
	rec := ShardCheckpointRecord{LSNs: make([]uint64, len(s.shards)), Vector: make(ShardVector, len(s.shards))}
	for i, sh := range s.shards {
		if m := sh.lastCkpt.Load(); m != nil {
			rec.LSNs[i], rec.Vector[i] = m.lsn, m.versions
		}
	}
	s.recMu.Lock()
	defer s.recMu.Unlock()
	res.Err = appendCheckpointRecord(s.dir, rec)
}

// Close drains and closes every shard (each writes a final checkpoint) and
// records the final coordinated checkpoint line. Further maintenance calls
// fail; snapshots stay readable. Idempotent.
func (s *DurableShardedSession) Close() {
	first := false
	for _, sh := range s.shards {
		first = sh.shutdown(sh.closeLog) || first
	}
	if first {
		s.record(&ApplyResult{})
	}
}

// Kill closes every shard without final checkpoints or log syncs — the
// shutdown of a simulated whole-process crash (testing). Idempotent with
// Close.
func (s *DurableShardedSession) Kill() {
	for _, sh := range s.shards {
		sh.Kill()
	}
}

// Wedged returns the first shard's wedging error (see
// DurableSession.Wedged), or nil while every shard is healthy.
func (s *DurableShardedSession) Wedged() error {
	for _, sh := range s.shards {
		if err := sh.Wedged(); err != nil {
			return err
		}
	}
	return nil
}

// ReadShardCheckpoints returns a durable sharded session's checkpoint log
// records, oldest first (empty if no checkpoint round completed). Torn
// trailing lines — a crash mid-append — are ignored.
func ReadShardCheckpoints(dir string) ([]ShardCheckpointRecord, error) {
	f, err := os.Open(checkpointLog(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ShardCheckpointRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		var rec ShardCheckpointRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func writeManifest(dir string, m shardManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	// Write-tmp / fsync / rename: the rename publishes atomically, but only
	// the Sync guarantees the bytes behind the new name survive a crash —
	// os.WriteFile alone could publish an empty or torn manifest.
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func readManifest(dir string) (shardManifest, error) {
	var m shardManifest
	b, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return m, fmt.Errorf("lmfao: no durable sharded state in %s: %w", dir, err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("lmfao: corrupt shard manifest: %w", err)
	}
	if m.Shards < 1 || m.Fact == "" {
		return m, fmt.Errorf("lmfao: corrupt shard manifest: %+v", m)
	}
	return m, nil
}

// appendCheckpointRecord appends one JSONL line to the checkpoint log and
// fsyncs it.
func appendCheckpointRecord(dir string, rec ShardCheckpointRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(checkpointLog(dir), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
