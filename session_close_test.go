package lmfao

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// closeFixtures returns one builder per serving kind, each building its
// maintainer over an independent copy of the sessionFixture database. The
// table drives the shared Close contract across all four: Close is
// idempotent, Apply/ApplyAsync/Run after Close fail with errSessionClosed
// (never panic or hang), the last published snapshot stays readable, and no
// goroutine outlives Close.
func closeFixtures(t *testing.T) []struct {
	name  string
	build func() Maintainer
} {
	t.Helper()
	mk := func() (*Database, []*Query) {
		db, _, amount, region := sessionFixture(t)
		return db, []*Query{
			NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
			NewQuery("total", nil, Sum(amount)),
		}
	}
	must := func(m Maintainer, err error) Maintainer {
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return []struct {
		name  string
		build func() Maintainer
	}{
		{"session", func() Maintainer {
			db, queries := mk()
			return must(NewSession(db, queries, DefaultOptions()))
		}},
		{"sharded", func() Maintainer {
			db, queries := mk()
			return must(NewShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2}))
		}},
		{"durable", func() Maintainer {
			db, queries := mk()
			return must(NewDurableSession(db, queries, DefaultOptions(), DurableOptions{}, t.TempDir()))
		}},
		{"durable-sharded", func() Maintainer {
			db, queries := mk()
			return must(NewDurableShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2}, DurableOptions{}, t.TempDir()))
		}},
	}
}

// requireGoroutinesBack waits for the goroutine count to drop back to base.
// An exiting goroutine may still be counted for a moment after it signals
// completion, so the check polls briefly before failing.
func requireGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseContract(t *testing.T) {
	for _, kind := range closeFixtures(t) {
		t.Run(kind.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := kind.build()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			u := Update{Relation: "sales",
				Inserts: []Column{IntColumn([]int64{2}), FloatColumn([]float64{10})}}
			if _, err := m.Apply(u); err != nil {
				t.Fatalf("pre-close apply: %v", err)
			}
			pre := m.Snapshot()
			if pre == nil {
				t.Fatal("no snapshot before close")
			}

			m.Close()
			m.Close() // idempotent
			m.Wait()  // no deadlock after close
			requireGoroutinesBack(t, base)

			if _, err := m.Apply(u); !errors.Is(err, errSessionClosed) {
				t.Fatalf("apply after close: err = %v, want errSessionClosed", err)
			}
			res := <-m.ApplyAsync(u)
			if !errors.Is(res.Err, errSessionClosed) {
				t.Fatalf("async apply after close: err = %v, want errSessionClosed", res.Err)
			}
			if _, err := m.Run(); !errors.Is(err, errSessionClosed) {
				t.Fatalf("run after close: err = %v, want errSessionClosed", err)
			}

			// The last published snapshot stays readable after Close.
			sn := m.Snapshot()
			if sn == nil {
				t.Fatal("snapshot gone after close")
			}
			if got := sn.NumQueries(); got != 2 {
				t.Fatalf("snapshot serves %d queries, want 2", got)
			}
			if _, ok := sn.Lookup(1); !ok {
				t.Fatal("scalar lookup failed on post-close snapshot")
			}
		})
	}
}

// TestWriterIdleHoldsNoGoroutine pins the greedy drain: a writer runs a
// goroutine only while it has queued work, so a session that is never
// closed holds none once Wait returns.
func TestWriterIdleHoldsNoGoroutine(t *testing.T) {
	for _, kind := range closeFixtures(t)[:2] { // the unlogged kinds: no files to release
		t.Run(kind.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := kind.build()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			var chans []<-chan ApplyResult
			for i := 0; i < 8; i++ {
				chans = append(chans, m.ApplyAsync(InsertRows("sales",
					IntColumn([]int64{int64(i % 3)}), FloatColumn([]float64{float64(i)}))))
			}
			m.Wait()
			for _, ch := range chans {
				if res := <-ch; res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			requireGoroutinesBack(t, base)
		})
	}
}

// TestWriterConcurrentProducers drives every kind's writer from several
// producer goroutines at once, with requeries running beside them: every
// accepted update must commit exactly once.
func TestWriterConcurrentProducers(t *testing.T) {
	const producers, perProducer = 4, 10
	for _, kind := range closeFixtures(t) {
		t.Run(kind.name, func(t *testing.T) {
			m := kind.build()
			defer m.Close()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			before, _ := m.Snapshot().Lookup(1)
			queries := []*Query{NewQuery("n", nil, Count())}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					var chans []<-chan ApplyResult
					for i := 0; i < perProducer; i++ {
						chans = append(chans, m.ApplyAsync(InsertRows("sales",
							IntColumn([]int64{int64(p % 3)}), FloatColumn([]float64{1}))))
						if _, err := m.Snapshot().(Requerier).Requery(queries); err != nil {
							t.Error(err)
						}
					}
					for _, ch := range chans {
						if res := <-ch; res.Err != nil {
							t.Error(res.Err)
						}
					}
				}(p)
			}
			wg.Wait()
			m.Wait()
			after, _ := m.Snapshot().Lookup(1)
			if got, want := after[0]-before[0], float64(producers*perProducer); got != want {
				t.Fatalf("total grew by %v, want %v", got, want)
			}
		})
	}
}

// TestDurableShardedCloseRacesCheckpoint is the regression test for Close
// racing a coordinated checkpoint: with CheckpointEvery 1 every Apply call
// carries one. The checkpoint used to run on a detached goroutine after
// Close had shut the shards, reporting ErrSessionClosed for an update that
// had committed (a retry would apply it twice), and Close returned while
// that goroutine still ran. The checkpoint is now part of the accepted
// call, so the update reports success and its result is delivered before
// Close returns.
func TestDurableShardedCloseRacesCheckpoint(t *testing.T) {
	for i := 0; i < 40; i++ {
		db, _, amount, _ := sessionFixture(t)
		s, err := NewDurableShardedSession(db, []*Query{NewQuery("total", nil, Sum(amount))}, DefaultOptions(),
			ShardOptions{Shards: 2}, DurableOptions{CheckpointEvery: 1}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		ch := s.ApplyAsync(InsertRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{7})))
		s.Close()
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("iteration %d: committed update reported as failed: %v", i, res.Err)
			}
		default:
			t.Fatalf("iteration %d: Close returned before the accepted update's result", i)
		}
	}
}

// TestDurableCloseThenRecover pins the Close/Recover interplay: a closed
// durable session's directory recovers without replay (the final checkpoint
// covers the log), and closing the recovered session again is clean.
func TestDurableCloseThenRecover(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	dir := t.TempDir()
	d, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	u := Update{Relation: "sales",
		Inserts: []Column{IntColumn([]int64{0}), FloatColumn([]float64{7})}}
	if _, err := d.Apply(u); err != nil {
		t.Fatal(err)
	}
	want := lookupRow(t, d.Head().Result(1))
	d.Close()

	pristine, _, _, _ := sessionFixture(t)
	// Recovery needs the same pre-update base data, not the mutated db.
	rec, err := RecoverSession(dir, pristine, queries, DefaultOptions(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := lookupRow(t, rec.Head().Result(1)); got[0] != want[0] {
		t.Fatalf("recovered total %v, want %v", got, want)
	}
	if got, want := rec.LastLSN(), uint64(1); got != want {
		t.Fatalf("recovered LSN %d, want %d", got, want)
	}
}

// TestSessionSnapshotInterfaceNil audits the typed-nil hazard on
// Maintainer.Snapshot: before the first Run, every maintainer kind must
// return an UNTYPED nil Queryable — never a (*Snapshot)(nil) wrapped in the
// interface, which would compare non-nil and crash serving-tier
// `snapshot == nil` guards. Covers all four Maintainer implementations.
func TestSessionSnapshotInterfaceNil(t *testing.T) {
	for _, kind := range closeFixtures(t) {
		t.Run(kind.name, func(t *testing.T) {
			m := kind.build()
			defer m.Close()
			if sn := m.Snapshot(); sn != nil {
				t.Fatalf("Snapshot() before Run = %#v (%T), want untyped nil", sn, sn)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if sn := m.Snapshot(); sn == nil {
				t.Fatal("Snapshot() nil after Run")
			}
		})
	}
}

// TestErrSessionClosedExported pins the exported sentinel to the one every
// maintainer actually returns, so errors.Is works across the API boundary.
func TestErrSessionClosedExported(t *testing.T) {
	if !errors.Is(ErrSessionClosed, errSessionClosed) {
		t.Fatal("ErrSessionClosed is not errSessionClosed")
	}
}
