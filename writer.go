package lmfao

import (
	"sync"

	"repro/internal/data"
	"repro/internal/moo"
)

// The writer is the one write path behind every maintainer kind: a Session
// is one writer, a ShardedSession routes to N of them, and the durable
// kinds are the same writers with a WAL hook and a checkpoint hook
// installed. A writer owns a FIFO queue of jobs (Apply, Run, Checkpoint).
// Submitting to an idle writer starts one drain goroutine, which runs jobs
// until the queue is empty and then exits, so an idle writer holds no
// goroutine.
//
// The drain is greedy: consecutive queued Apply jobs form one maintenance
// round, with adjacent updates of different jobs coalesced (see
// coalesceUpdates). Run and Checkpoint jobs run alone. A Run is two-phase:
// each part of a Run call stages its recompute, and every part commits only
// once all of them staged successfully.

// writer names the Session in its role as a write path; the durable kinds
// embed it under this name, keeping Session() free as their accessor.
type writer = Session

// jobKind is what a queued job asks of its writer.
type jobKind uint8

const (
	applyJob jobKind = iota
	runJob
	checkpointJob
)

// job is one writer's part of a maintenance call.
type job struct {
	w       *Session
	kind    jobKind
	updates []Update
	call    *call
}

// call is one maintenance call, fanned out as one job per involved writer
// (two for a durable sharded Apply that also checkpoints). It gathers the
// parts' outcomes into a single ApplyResult, delivered when the last part
// finishes, and is the stage barrier of a Run.
type call struct {
	mu       sync.Mutex
	parts    int // parts not yet finished
	staging  int // Run parts not yet staged
	stageErr error
	staged   chan struct{}
	res      ApplyResult
	ch       chan ApplyResult
	// done, when set, runs on the goroutine that finishes the last part,
	// before the result is delivered.
	done func(*ApplyResult)
}

// stage records one Run part's recompute outcome, waits until every part
// has staged, and returns the first stage error: nil means commit.
func (c *call) stage(err error) error {
	c.mu.Lock()
	if err != nil && c.stageErr == nil {
		c.stageErr = err
	}
	c.staging--
	if c.staging == 0 {
		close(c.staged)
	}
	c.mu.Unlock()
	<-c.staged
	return c.stageErr
}

// finish records one part's outcome; the last part runs done and delivers.
func (c *call) finish(stats []*ApplyStats, err error) {
	c.mu.Lock()
	c.res.Stats = append(c.res.Stats, stats...)
	if err != nil && c.res.Err == nil {
		c.res.Err = err
	}
	c.parts--
	last := c.parts == 0
	c.mu.Unlock()
	if last {
		if c.done != nil {
			c.done(&c.res)
		}
		c.ch <- c.res
	}
}

// failed returns a channel already holding err.
func failed(err error) <-chan ApplyResult {
	ch := make(chan ApplyResult, 1)
	ch <- ApplyResult{Err: err}
	return ch
}

// submit enqueues jobs as one call and returns the channel its result is
// delivered on. ws lists every writer of the maintainer, in shard order;
// all of them are locked while the call is checked and enqueued. That makes
// the call atomic with respect to Close (if any writer is closed, no job is
// enqueued), and it gives every writer the same relative order of calls, so
// Run barriers cannot deadlock.
func submit(ws []*Session, jobs []*job, done func(*ApplyResult)) <-chan ApplyResult {
	c := &call{parts: len(jobs), staging: len(jobs), staged: make(chan struct{}),
		ch: make(chan ApplyResult, 1), done: done}
	for _, w := range ws {
		w.mu.Lock()
	}
	closed := false
	for _, w := range ws {
		closed = closed || w.closed
	}
	if !closed {
		for _, j := range jobs {
			j.call = c
			j.w.queue = append(j.w.queue, j)
			if !j.w.draining {
				j.w.draining = true
				go j.w.drain()
			}
		}
	}
	for _, w := range ws {
		w.mu.Unlock()
	}
	switch {
	case closed:
		return failed(errSessionClosed)
	case len(jobs) == 0:
		c.ch <- c.res
	}
	return c.ch
}

// drain runs queued jobs until the queue is empty, then exits.
func (s *Session) drain() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.queue = nil
			s.draining = false
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		n := 1
		for s.queue[0].kind == applyJob && n < len(s.queue) && s.queue[n].kind == applyJob {
			n++
		}
		batch := s.queue[:n:n]
		s.queue = s.queue[n:]
		s.mu.Unlock()

		// A Run part keeps engMu while it waits at the stage barrier. That
		// cannot deadlock: a part reaching the barrier needs only its own
		// writer's engMu, which Requery holds for one bounded engine run.
		s.engMu.Lock()
		s.process(batch)
		s.engMu.Unlock()
	}
}

// process runs one batch: a single Run or Checkpoint job, or a run of Apply
// jobs as one maintenance round.
//
// lmfao:requires engMu
func (s *Session) process(batch []*job) {
	j := batch[0]
	switch j.kind {
	case runJob:
		var res *moo.BatchResult
		err := s.wedgedErr()
		if err == nil {
			res, err = s.eng.Run(s.queries)
		}
		// The recompute mutates no base data, so a discarded stage leaves
		// the maintained state untouched.
		if err = j.call.stage(err); err == nil {
			s.res = res
			s.publishLocked(res, nil)
			err = s.commitHook(true)
		}
		j.call.finish(nil, err)
	case checkpointJob:
		j.call.finish(nil, s.commitHook(true))
	default:
		s.applyRound(batch)
	}
}

// commitHook runs the post-commit hook, if any; force asks for a checkpoint
// regardless of the policy.
func (s *Session) commitHook(force bool) error {
	if err := s.wedgedErr(); err != nil {
		return err
	}
	if s.postCommit == nil {
		return nil
	}
	return s.postCommit(force)
}

// applyRound applies a batch of Apply jobs as one coalesced round and
// attributes its outcome per job. applyLocked stops at the first failing
// (coalesced) update and returns stats for the committed prefix, and each
// coalesced update is all-or-nothing (block validation precedes mutation),
// so a job has committed exactly when every coalesced update it fed into
// lies in that prefix. Contributors ascend across coalesced updates: every
// job below the failing update's first contributor committed, that
// contributor and every later job did not. An error with no failing update
// (the trailing recompute, or the post-commit hook) goes to every job.
//
// lmfao:requires engMu
func (s *Session) applyRound(batch []*job) {
	var updates []Update
	var owner []int // source job index, parallel to updates
	for ji, j := range batch {
		for _, u := range j.updates {
			updates = append(updates, u)
			owner = append(owner, ji)
		}
	}
	coalesced, firstJob := coalesceUpdates(updates, owner)
	stats, err := s.applyLocked(coalesced)
	s.enqueued.Add(int64(len(updates)))
	s.applied.Add(int64(len(coalesced)))
	s.rounds.Add(1)
	okThrough := len(batch)
	if err == nil {
		err = s.commitHook(false)
	}
	if err != nil {
		okThrough = 0
		if len(stats) < len(coalesced) {
			okThrough = firstJob[len(stats)]
		}
	}
	for ji, j := range batch {
		if ji < okThrough {
			j.call.finish(stats, nil)
		} else {
			j.call.finish(stats, err)
		}
	}
}

// wedge records the sticky failure that wedges the writer: every later job
// fails with it. The first failure wins.
func (s *Session) wedge(err error) { s.wedged.CompareAndSwap(nil, &err) }

// wedgedErr returns the error that wedged the writer, or nil.
func (s *Session) wedgedErr() error {
	if p := s.wedged.Load(); p != nil {
		return *p
	}
	return nil
}

// shutdown closes the writer's gate, waits for the accepted jobs to drain,
// then runs final (if any) with exclusive use of the engine. It reports
// whether this call closed the writer; later calls return at once.
func (s *Session) shutdown(final func()) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	for s.draining {
		s.idle.Wait()
	}
	s.mu.Unlock()
	if final != nil {
		s.engMu.Lock()
		defer s.engMu.Unlock()
		final()
	}
	return true
}

// coalesceUpdates merges adjacent updates of different jobs when the merge
// cannot change semantics: same-relation insert-only runs concatenate into
// one insert block, delete-only runs into one delete block. One job's own
// updates never merge with each other, so a call keeps its granularity:
// each of its updates is one maintenance step, one published epoch and,
// on a durable writer, one WAL record. Mixed insert+delete updates pass
// through unmerged — a Delta applies deletes before inserts, so folding
// u1's inserts and u2's deletes into one delta could delete a row u1 was
// about to create. The one observable difference: a coalesced delete block
// fails atomically where the sequential updates would have partially
// applied.
//
// owner tags each input update with its source job index (ascending); the
// returned firstJob slice carries, per output update, the lowest
// contributing job index — the error-attribution map for failed rounds.
// Each coalescible run is measured first and concatenated once, so a burst
// of k updates costs one copy of each block, not k accumulator re-copies.
func coalesceUpdates(updates []Update, owner []int) ([]Update, []int) {
	out := make([]Update, 0, len(updates))
	firstJob := make([]int, 0, len(updates))
	for i := 0; i < len(updates); {
		j := i + 1
		for j < len(updates) && owner[j] != owner[j-1] && canCoalesce(updates[i], updates[j]) {
			// canCoalesce is associative over a run: updates[i] determines
			// the relation and the insert-only/delete-only side, and every
			// accepted update matches both.
			j++
		}
		u := updates[i]
		if j > i+1 {
			u = Update{
				Relation: u.Relation,
				Inserts:  concatRun(updates[i:j], func(x Update) []Column { return x.Inserts }),
				Deletes:  concatRun(updates[i:j], func(x Update) []Column { return x.Deletes }),
			}
		}
		out = append(out, u)
		firstJob = append(firstJob, owner[i])
		i = j
	}
	return out, firstJob
}

func canCoalesce(a, b Update) bool {
	if a.Relation != b.Relation {
		return false
	}
	insOnly := a.DeleteRows() == 0 && b.DeleteRows() == 0
	delOnly := a.InsertRows() == 0 && b.InsertRows() == 0
	return insOnly || delOnly
}

// concatRun concatenates one side's tuple blocks across a coalescible run
// into fresh, exactly-sized storage (nil when every member's side is empty;
// the inputs are caller-owned and never mutated). Each source block is
// copied exactly once.
func concatRun(run []Update, side func(Update) []Column) []Column {
	total := 0
	var proto []Column
	for _, u := range run {
		if b := side(u); len(b) > 0 && b[0].Len() > 0 {
			if proto == nil {
				proto = b
			}
			total += b[0].Len()
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]Column, len(proto))
	for ci := range out {
		if proto[ci].IsInt() {
			vals := make([]int64, 0, total)
			for _, u := range run {
				if b := side(u); len(b) > 0 {
					vals = append(vals, b[ci].Ints...)
				}
			}
			out[ci] = data.NewIntColumn(vals)
		} else {
			vals := make([]float64, 0, total)
			for _, u := range run {
				if b := side(u); len(b) > 0 {
					vals = append(vals, b[ci].Floats...)
				}
			}
			out[ci] = data.NewFloatColumn(vals)
		}
	}
	return out
}
