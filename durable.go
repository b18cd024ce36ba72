package lmfao

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/wal"
)

// DurableOptions configure the write-ahead logging and checkpointing of a
// DurableSession. The zero value is a sound production default:
// fsync-on-commit, a checkpoint every DefaultCheckpointEvery updates, two
// checkpoints retained.
type DurableOptions struct {
	// CheckpointEvery checkpoints after this many logged updates (0 =
	// DefaultCheckpointEvery; negative disables automatic checkpoints —
	// Close and explicit Checkpoint calls still write them). Recovery
	// replays at most this many log records, so it bounds restart time.
	CheckpointEvery int
	// CheckpointKeep is how many recent checkpoints to retain (minimum and
	// default 2: the newest plus one fallback in case the newest is torn).
	CheckpointKeep int
	// SegmentBytes is the WAL segment rotation bound (see wal.Options).
	SegmentBytes int64
	// SyncEvery is the WAL fsync cadence (see wal.Options; 1 = every
	// commit, the default).
	SyncEvery int
}

// DefaultCheckpointEvery is the automatic checkpoint interval, in logged
// updates, used when DurableOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

func (o DurableOptions) norm() DurableOptions {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.CheckpointKeep < 2 {
		o.CheckpointKeep = 2
	}
	return o
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{SegmentBytes: o.SegmentBytes, SyncEvery: o.SyncEvery}
}

func walDir(dir string) string  { return filepath.Join(dir, "wal") }
func ckptDir(dir string) string { return filepath.Join(dir, "checkpoint") }

// DurableSession is a Session whose maintained state survives process
// death: every update is appended to a write-ahead log (internal/wal) and
// fsynced BEFORE it mutates the session, and the full maintained state —
// base relations, materialized view DAG, version vector — is checkpointed
// on a configurable interval. After a crash, RecoverSession rebuilds the
// identical session from the newest valid checkpoint plus a replay of the
// log suffix through the normal Apply path; the kill-and-recover oracle in
// internal/oracletest proves the recovered state bit-exact against an
// uninterrupted twin at arbitrary crash points.
//
// DurableSession implements Maintainer. It is a Session writer with two
// hooks installed: the pre-apply hook appends each update the writer is
// about to apply — after coalescing, so one log record is one applied
// update — and the post-commit hook runs the checkpoint policy. The log is
// therefore exactly the sequence of updates the session applied, in order,
// and replay reproduces the live apply sequence verbatim. Run, Apply,
// ApplyAsync, Wait and the reads (Snapshot, Head, Result) are the
// Session's own: Run also writes a covering checkpoint, so a session is
// recoverable from the moment its first Run returns, and when Apply
// returns every committed update is in the WAL (fsynced per SyncEvery).
//
// A WAL write failure (a real I/O error, or an injected crash in tests)
// wedges the session: the failed update was not made durable and is not
// applied, and every later maintenance call returns the same error. Recover
// from the directory; the in-memory session is disposable by design.
type DurableSession struct {
	*writer
	log  *wal.Log
	dir  string
	opts DurableOptions

	// sinceCkpt counts records logged since the last checkpoint; it is
	// only touched with the writer's engMu held.
	sinceCkpt int
	// lastCkpt is what the newest checkpoint covers (for the sharded
	// checkpoint log).
	lastCkpt atomic.Pointer[ckptMark]
	// failCkpt arms the pre-fsync checkpoint crash point (testing).
	failCkpt atomic.Bool
}

// ckptMark is the log position and snapshot version vector one checkpoint
// covers.
type ckptMark struct {
	lsn      uint64
	versions VersionVector
}

// NewDurableSession builds a maintained session over db whose updates are
// write-ahead logged under dir (created if missing; must not already hold
// durable session state — use RecoverSession for that). The database is
// adopted like NewSession's: the session owns it for its lifetime. Call Run
// once to materialize and write the initial checkpoint, then stream updates
// through Apply/ApplyAsync.
func NewDurableSession(db *Database, queries []*Query, opts Options, dopts DurableOptions, dir string) (*DurableSession, error) {
	log, err := wal.Open(walDir(dir), dopts.walOptions())
	if err != nil {
		return nil, err
	}
	ck, err := wal.LatestCheckpoint(ckptDir(dir))
	if err == nil && (log.LastLSN() > 0 || ck != nil) {
		err = fmt.Errorf("lmfao: %s already holds durable session state; use RecoverSession", dir)
	}
	var sess *Session
	if err == nil {
		sess, err = NewSession(db, queries, opts)
	}
	if err != nil {
		log.Abort()
		return nil, err
	}
	return newDurable(sess, log, dir, dopts, 0), nil
}

// newDurable wraps a writer with the WAL hooks.
func newDurable(sess *Session, log *wal.Log, dir string, dopts DurableOptions, sinceCkpt int) *DurableSession {
	d := &DurableSession{writer: sess, log: log, dir: dir, opts: dopts.norm(), sinceCkpt: sinceCkpt}
	sess.preApply = d.logUpdate
	sess.postCommit = d.checkpointPolicy
	return d
}

// RecoverSession rebuilds a durable session from dir after a crash or a
// clean Close. The caller supplies the PRISTINE initial state — the same
// database contents, query batch and options the session was originally
// created with (the pristine-database contract): the plan is rebuilt over
// the pristine base statistics, which pins it to the exact plan the
// checkpointed views were materialized under, before the checkpoint's
// relation contents are restored in place. The WAL is opened (truncating
// any torn or corrupt tail to the last committed prefix) and the records
// past the checkpoint replay through the session's writer, one update per
// record, with the WAL hook not yet installed — the same apply sequence the
// original session executed. With no valid checkpoint the session
// recomputes from the pristine base and replays the whole log.
func RecoverSession(dir string, db *Database, queries []*Query, opts Options, dopts DurableOptions) (*DurableSession, error) {
	sess, err := NewSession(db, queries, opts)
	if err != nil {
		return nil, err
	}
	ck, err := wal.LatestCheckpoint(ckptDir(dir))
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(walDir(dir), dopts.walOptions())
	if err != nil {
		return nil, err
	}
	var after uint64
	if ck != nil {
		err = restoreCheckpoint(sess, queries, ck)
		after = ck.LSN
		log.AdvanceLSN(ck.LSN)
	} else {
		_, err = sess.Run()
	}
	replayed := 0
	if err == nil {
		err = log.Replay(after, func(rec wal.Record) error {
			replayed++
			// An apply error here is the deterministic re-play of a failure
			// the live session already saw and continued past (its later
			// rounds kept logging), so replay continues to the next record
			// just as the live stream did.
			_, _ = sess.Apply(rec.Delta)
			return nil
		})
	}
	if err != nil {
		log.Abort()
		return nil, err
	}
	return newDurable(sess, log, dir, dopts, replayed), nil
}

// restoreCheckpoint installs ck onto a freshly built session over the
// pristine database: plan first (over pristine statistics), then relation
// contents, then the checkpointed view DAG published as the session's
// current result.
func restoreCheckpoint(sess *Session, queries []*Query, ck *wal.Checkpoint) error {
	plan, err := sess.eng.PlanBatch(queries)
	if err != nil {
		return err
	}
	if len(ck.Views) != len(plan.Views) {
		return fmt.Errorf("lmfao: checkpoint holds %d views but the plan builds %d — recover with the session's original queries and options", len(ck.Views), len(plan.Views))
	}
	// Guard plan identity view-by-view: a checkpoint written under a
	// different plan must fail loudly here, not restore views whose layout
	// the maintenance code would silently misinterpret.
	for i, v := range ck.Views {
		if v == nil {
			continue
		}
		pg := plan.Views[i].GroupBy
		vg := v.GroupBy
		if len(pg) != len(vg) {
			return fmt.Errorf("lmfao: checkpoint view %d groups by %v but the plan expects %v", i, vg, pg)
		}
		for c := range pg {
			if pg[c] != vg[c] {
				return fmt.Errorf("lmfao: checkpoint view %d groups by %v but the plan expects %v", i, vg, pg)
			}
		}
	}
	db := sess.eng.DB()
	tree := sess.eng.Tree()
	restored := make(map[string]bool, len(ck.Relations))
	for _, rs := range ck.Relations {
		rel := db.Relation(rs.Name)
		if rel == nil {
			// Materialized hypertree bags are join-tree relations, not
			// database ones.
			if node := tree.NodeByRelation(rs.Name); node != nil && node.IsBag() {
				rel = node.Rel
			}
		}
		if rel == nil {
			return fmt.Errorf("lmfao: checkpoint restores unknown relation %q", rs.Name)
		}
		if err := rel.Restore(rs.Cols, rs.Version); err != nil {
			return fmt.Errorf("lmfao: restore of relation %q: %w", rs.Name, err)
		}
		restored[rs.Name] = true
	}
	for _, rel := range db.Relations() {
		if !restored[rel.Name] {
			return fmt.Errorf("lmfao: checkpoint is missing relation %q — recover with the session's original database", rel.Name)
		}
	}
	for _, node := range tree.Nodes {
		if node.IsBag() && !restored[node.Rel.Name] {
			return fmt.Errorf("lmfao: checkpoint is missing materialized bag %q — recover with the session's original database", node.Rel.Name)
		}
	}
	for qi, vid := range plan.OutputView {
		if ck.Views[vid] == nil {
			return fmt.Errorf("lmfao: checkpoint is missing the output view of query %d", qi)
		}
	}
	// Checkpoints persist the raw view DAG; user-visible results (including
	// monoid columns folded from support views) are re-assembled from it.
	res, err := moo.NewBatchFromMaterialized(plan, ck.Views, ck.Versions)
	if err != nil {
		return err
	}
	sess.restoreResult(res)
	return nil
}

// logUpdate is the pre-apply hook: it appends (and fsyncs, per policy) the
// update the writer is about to apply.
func (d *DurableSession) logUpdate(u Update) error {
	if _, err := d.log.Append(u); err != nil {
		return err
	}
	d.sinceCkpt++
	return nil
}

// checkpointPolicy is the post-commit hook: it checkpoints when forced (Run,
// Checkpoint) or once CheckpointEvery records were logged since the last
// checkpoint.
func (d *DurableSession) checkpointPolicy(force bool) error {
	if !force && (d.opts.CheckpointEvery <= 0 || d.sinceCkpt < d.opts.CheckpointEvery) {
		return nil
	}
	return d.checkpoint()
}

// checkpoint durably snapshots the session's current state; the writer's
// engMu must be held. It syncs the log first (a checkpoint must never cover
// unsynced records), captures the relations' contents and versions plus
// the maintained view DAG, writes the checkpoint file atomically and prunes
// old ones. Recovery loads the newest checkpoint and replays the log records
// after its LSN; nothing in memory needs to outlive it.
func (d *DurableSession) checkpoint() error {
	s := d.writer
	if err := s.wedgedErr(); err != nil {
		return err
	}
	if s.res == nil {
		// A failed round left no maintained state; the next Run/Apply
		// recomputes and the checkpoint retries on the following interval.
		return nil
	}
	if err := d.log.Sync(); err != nil {
		s.wedge(err)
		return err
	}
	db := s.eng.DB()
	ck := &wal.Checkpoint{
		LSN:      d.log.LastLSN(),
		Versions: ivm.CaptureVersions(db),
		Views:    s.res.Materialized,
	}
	for _, rel := range db.Relations() {
		ck.Relations = append(ck.Relations, wal.RelationState{
			Name: rel.Name, Version: rel.Version(), Cols: rel.Cols,
		})
	}
	// Materialized hypertree bags live in the join tree, not the database;
	// capture them too, or a recovery would fold replayed member deltas into
	// bags still holding their pristine contents.
	for _, node := range s.eng.Tree().Nodes {
		if node.IsBag() {
			ck.Relations = append(ck.Relations, wal.RelationState{
				Name: node.Rel.Name, Version: node.Rel.Version(), Cols: node.Rel.Cols,
			})
		}
	}
	if err := wal.WriteCheckpoint(ckptDir(d.dir), ck, d.failCkpt.Swap(false)); err != nil {
		if errors.Is(err, wal.ErrInjectedCrash) {
			s.wedge(err)
		}
		return err
	}
	if err := wal.PruneCheckpoints(ckptDir(d.dir), d.opts.CheckpointKeep); err != nil {
		return err
	}
	d.sinceCkpt = 0
	d.lastCkpt.Store(&ckptMark{lsn: ck.LSN, versions: s.Head().VersionVector()})
	return nil
}

// Checkpoint forces a durable checkpoint of the current state, regardless
// of the automatic interval. It runs as a job on the writer's queue, after
// every call accepted before it.
func (d *DurableSession) Checkpoint() error { return (<-d.one(checkpointJob, nil)).Err }

// Session returns the writer itself, for reads and introspection; calls
// through it are logged like the DurableSession's own.
func (d *DurableSession) Session() *Session { return d.writer }

// LastLSN returns the LSN of the last durably committed log record (0
// before the first logged update; after recovery, the position the
// recovered state reflects). Each record is one applied update, possibly
// coalesced from several queued calls, so LastLSN counts applied records.
// Safe from any goroutine.
func (d *DurableSession) LastLSN() uint64 { return d.log.LastLSN() }

// Dir returns the durable state directory.
func (d *DurableSession) Dir() string { return d.dir }

// Close drains accepted work, writes a final checkpoint, syncs and closes
// the log. Further maintenance calls fail; published snapshots stay
// readable. Idempotent.
func (d *DurableSession) Close() { d.shutdown(d.closeLog) }

// closeLog is Close's shutdown step: final checkpoint, then log close.
func (d *DurableSession) closeLog() {
	_ = d.checkpoint()
	_ = d.log.Close()
}

// Kill is Close without the final checkpoint or log sync — the shutdown of
// a simulated crash (testing): only what the fsync policy already
// committed survives on disk. Accepted calls still drain through the
// writer first. Idempotent with Close.
func (d *DurableSession) Kill() { d.shutdown(func() { _ = d.log.Abort() }) }

// CrashAfterAppends arms the WAL writer's injected-crash point: the next n
// appends succeed, then the following one writes a torn frame prefix and
// wedges the session with wal.ErrInjectedCrash — the on-disk state of a
// process dying mid-append. Fault injection for crash-recovery testing.
func (d *DurableSession) CrashAfterAppends(n int) { d.log.CrashAfterAppends(n) }

// Wedged returns the sticky error that wedged the session, or nil while it
// is healthy. A wedged session fails every further maintenance call with
// the same error while its published snapshots stay readable; recover from
// the directory. Safe for concurrent use (the serving tier maps a wedged
// maintainer to 503).
func (d *DurableSession) Wedged() error { return d.wedgedErr() }

// CrashNextCheckpoint arms the checkpoint crash point: the next checkpoint
// writes its bytes but dies before fsync/rename, leaving only a stale .tmp
// file recovery ignores, and wedges the session. Fault injection for
// crash-recovery testing.
func (d *DurableSession) CrashNextCheckpoint() { d.failCkpt.Store(true) }
