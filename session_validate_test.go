package lmfao

import (
	"errors"
	"math"
	"testing"
)

// requireMatchesRecompute checks that the session's maintained results are
// bit-exact against a fresh batch over the session's current base data,
// hidden count columns included.
func requireMatchesRecompute(t *testing.T, db *Database, queries []*Query, got *BatchResult) {
	t.Helper()
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	for q, w := range want.Results {
		g := got.Results[q]
		if g.NumRows() != w.NumRows() {
			t.Fatalf("query %d: %d maintained rows, recompute has %d", q, g.NumRows(), w.NumRows())
		}
		for i := 0; i < w.NumRows(); i++ {
			j := g.Lookup(w.Key(i)...)
			if j < 0 {
				t.Fatalf("query %d: group %v missing from maintained result", q, w.Key(i))
			}
			for c := 0; c < w.Stride; c++ {
				if g.Val(j, c) != w.Val(i, c) {
					t.Fatalf("query %d group %v col %d: maintained %g, recompute %g",
						q, w.Key(i), c, g.Val(j, c), w.Val(i, c))
				}
			}
		}
	}
}

func validateFixture(t *testing.T) (*Database, []*Query) {
	t.Helper()
	db, _, amount, region := sessionFixture(t)
	return db, []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
}

// TestSessionRejectsHalfInvalidUpdate applies an update whose delete half is
// valid and whose insert half has the wrong column kind: the whole update
// must be rejected before its delete lands, leaving rows and maintained
// results as they were.
func TestSessionRejectsHalfInvalidUpdate(t *testing.T) {
	db, queries := validateFixture(t)
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	sales := db.Relation("sales")
	rows, epoch := sales.Len(), sess.Head().Epoch()
	_, err = sess.Apply(Update{
		Relation: "sales",
		Deletes:  []Column{IntColumn([]int64{2}), FloatColumn([]float64{5})},
		Inserts:  []Column{IntColumn([]int64{0}), IntColumn([]int64{7})},
	})
	if err == nil {
		t.Fatal("update with a kind-mismatched insert half was accepted")
	}
	if got := sales.Len(); got != rows {
		t.Fatalf("rejected update changed sales from %d to %d rows", rows, got)
	}
	if got := sess.Head().Epoch(); got != epoch {
		t.Fatalf("rejected update advanced the epoch from %d to %d", epoch, got)
	}
	requireMatchesRecompute(t, db, queries, sess.Result())

	// The session keeps maintaining exactly afterwards.
	if _, err := sess.Apply(DeleteRows("sales", IntColumn([]int64{2}), FloatColumn([]float64{5}))); err != nil {
		t.Fatal(err)
	}
	requireMatchesRecompute(t, db, queries, sess.Result())
}

// TestSessionRejectsNonFinite inserts NaN and +Inf amounts: each is
// rejected with ErrNonFinite and commits nothing.
func TestSessionRejectsNonFinite(t *testing.T) {
	db, queries := validateFixture(t)
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		epoch := sess.Head().Epoch()
		_, err := sess.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{v})))
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("insert of %v: err = %v, want ErrNonFinite", v, err)
		}
		if got := sess.Head().Epoch(); got != epoch {
			t.Fatalf("insert of %v advanced the epoch from %d to %d", v, epoch, got)
		}
	}
	if got := lookupRow(t, sess.Result().Results[1])[0]; got != 15 {
		t.Fatalf("total after rejected inserts = %g, want 15", got)
	}
	requireMatchesRecompute(t, db, queries, sess.Result())
}

// TestDurableSessionRejectsNonFinite is the durable counterpart: a rejected
// update must never reach the log, so LastLSN stays put and the session
// stays writable.
func TestDurableSessionRejectsNonFinite(t *testing.T) {
	db, queries := validateFixture(t)
	d, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		lsn := d.LastLSN()
		_, err := d.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{v})))
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("insert of %v: err = %v, want ErrNonFinite", v, err)
		}
		if got := d.LastLSN(); got != lsn {
			t.Fatalf("insert of %v moved LastLSN from %d to %d", v, lsn, got)
		}
	}
	if _, err := d.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{1}))); err != nil {
		t.Fatalf("valid insert after rejected ones: %v", err)
	}
	if got := d.LastLSN(); got != 1 {
		t.Fatalf("LastLSN after one valid insert = %d, want 1", got)
	}
}
