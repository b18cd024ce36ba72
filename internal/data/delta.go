package data

import (
	"fmt"
	"math"
)

// Delta describes one batch of changes against a named base relation:
// inserted and deleted tuples in the relation's schema order. Deletes are
// matched against existing tuples by full-row value equality; aggregates over
// the sum-product semiring are self-inverting, so the incremental-maintenance
// layer treats a delete as a negative-weight insert.
type Delta struct {
	Relation string
	// Inserts and Deletes hold one column per relation attribute (schema
	// order); either may be nil/empty.
	Inserts []Column
	Deletes []Column
}

// InsertRows returns the number of inserted tuples.
func (d Delta) InsertRows() int { return blockLen(d.Inserts) }

// DeleteRows returns the number of deleted tuples.
func (d Delta) DeleteRows() int { return blockLen(d.Deletes) }

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return d.InsertRows() == 0 && d.DeleteRows() == 0 }

func blockLen(cols []Column) int {
	if len(cols) == 0 {
		return 0
	}
	return cols[0].Len()
}

// Validate checks both column blocks against the relation's schema.
func (d Delta) Validate(rel *Relation) error {
	if d.Inserts != nil {
		if _, err := rel.checkBlock(d.Inserts); err != nil {
			return err
		}
	}
	if d.Deletes != nil {
		if _, err := rel.checkBlock(d.Deletes); err != nil {
			return err
		}
	}
	return nil
}

// Version returns the relation's mutation counter: 0 for a freshly built
// relation, incremented by every Append/DeleteRows. Caches keyed by relation
// content (sorted copies, statistics) must include the version. Safe to call
// concurrently with the single writer's mutations.
func (r *Relation) Version() int64 { return r.version.Load() }

// mutated invalidates row-content-derived caches after an in-place change
// (the sort order no longer holds, distinct counts may have shifted) and
// bumps the version.
func (r *Relation) mutated() {
	r.sortOrder = nil
	r.distinctMu.Lock()
	r.distinct = nil
	r.distinctMu.Unlock()
	r.version.Add(1)
}

// checkBlock validates a column block against the relation's schema: one
// column per attribute, kinds matching, equal lengths, finite floats.
func (r *Relation) checkBlock(cols []Column) (int, error) {
	if len(cols) != len(r.Cols) {
		return 0, fmt.Errorf("data: relation %q: block has %d columns, want %d", r.Name, len(cols), len(r.Cols))
	}
	n := -1
	for i, c := range cols {
		if c.IsInt() != r.Cols[i].IsInt() {
			return 0, fmt.Errorf("data: relation %q column %d: kind mismatch", r.Name, i)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return 0, fmt.Errorf("data: relation %q column %d: length %d, want %d", r.Name, i, c.Len(), n)
		}
		if err := c.checkFinite(); err != nil {
			return 0, fmt.Errorf("data: relation %q column %d: %w", r.Name, i, err)
		}
	}
	if n < 0 {
		n = 0
	}
	return n, nil
}

// Append appends a block of tuples to the relation. The appended rows break
// any previous sort order.
func (r *Relation) Append(cols []Column) error {
	n, err := r.checkBlock(cols)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	for i := range r.Cols {
		if r.Cols[i].IsInt() {
			r.Cols[i].Ints = append(r.Cols[i].Ints, cols[i].Ints...)
		} else {
			r.Cols[i].Floats = append(r.Cols[i].Floats, cols[i].Floats...)
		}
	}
	r.n += n
	r.mutated()
	return nil
}

// DeleteRows removes one matching tuple per row of the block, matching by
// full-row value equality. If any tuple has no remaining match the relation
// is left untouched and an error is returned, so a failed delete cannot leave
// base data and maintained views inconsistent.
func (r *Relation) DeleteRows(cols []Column) error {
	n, err := r.checkBlock(cols)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Hash the (small) delete block, then stream the base rows against it —
	// indexing the full relation would dominate small-delta maintenance.
	want := make(map[string]int, n)
	buf := make([]byte, 0, 8*len(r.Cols))
	for i := 0; i < n; i++ {
		buf = packRow(buf[:0], cols, i)
		want[string(buf)]++
	}
	drop := make([]bool, r.n)
	remaining := n
	for i := 0; i < r.n && remaining > 0; i++ {
		buf = packRow(buf[:0], r.Cols, i)
		if c := want[string(buf)]; c > 0 {
			want[string(buf)] = c - 1
			drop[i] = true
			remaining--
		}
	}
	if remaining > 0 {
		return fmt.Errorf("data: relation %q: %d delete tuples have no matching row", r.Name, remaining)
	}
	keep := make([]int32, 0, r.n-n)
	for i := 0; i < r.n; i++ {
		if !drop[i] {
			keep = append(keep, int32(i))
		}
	}
	for i := range r.Cols {
		r.Cols[i] = r.Cols[i].gather(keep)
	}
	r.n = len(keep)
	r.mutated()
	return nil
}

// packRow appends the packed encoding of row i across cols: int64 values
// verbatim, floats by their IEEE bits (exact-match semantics).
func packRow(buf []byte, cols []Column, i int) []byte {
	for _, c := range cols {
		if c.IsInt() {
			buf = AppendKey(buf, c.Ints[i])
		} else {
			buf = AppendKey(buf, int64(math.Float64bits(c.Floats[i])))
		}
	}
	return buf
}

func copyBlock(cols []Column) []Column {
	out := make([]Column, len(cols))
	for i, c := range cols {
		if c.IsInt() {
			out[i] = Column{Ints: append([]int64{}, c.Ints...)}
		} else {
			out[i] = Column{Floats: append([]float64{}, c.Floats...)}
		}
	}
	return out
}

// CheckDelta validates d against its base relation without applying it: the
// relation exists and both halves fit its schema. A delta that passes can
// fail ApplyDelta only on a delete with no matching tuple, which leaves the
// relation untouched.
func (db *Database) CheckDelta(d Delta) error {
	rel := db.Relation(d.Relation)
	if rel == nil {
		return fmt.Errorf("data: delta against unknown relation %q", d.Relation)
	}
	return d.Validate(rel)
}

// ApplyDelta applies d to its base relation: both halves are validated
// first, so a malformed insert half cannot follow an applied delete half;
// then deletes are removed and inserts appended.
func (db *Database) ApplyDelta(d Delta) error {
	if err := db.CheckDelta(d); err != nil {
		return err
	}
	rel := db.Relation(d.Relation)
	if d.DeleteRows() > 0 {
		if err := rel.DeleteRows(d.Deletes); err != nil {
			return err
		}
	}
	if d.InsertRows() > 0 {
		if err := rel.Append(d.Inserts); err != nil {
			return err
		}
	}
	return nil
}
