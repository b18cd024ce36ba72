package data

import (
	"fmt"
	"strings"
)

// Join-key indexing for semi-join-restricted incremental maintenance
// (internal/ivm, moo.Engine.Apply): when a delta at one join-tree node
// propagates to a view at an unchanged node, only the base rows whose
// join-key values appear among the delta's keys can contribute to the
// view's delta. A KeyIndex answers "which rows hold this key tuple?" in
// O(1), turning the maintenance scan at an unchanged node from O(|R|)
// into O(|delta keys| + |matching rows|).

// KeyIndex is a hash index from packed key tuples over a fixed attribute
// list (see AppendKey) to the ascending row ids of a relation holding them.
// It is immutable once built; Relation.KeyIndex caches one per attribute
// list and rebuilds lazily when the relation's Version moves.
type KeyIndex struct {
	attrs []AttrID
	rows  map[string][]int32
}

// Attrs returns the attribute list the index keys are packed over, in
// packing order.
func (ix *KeyIndex) Attrs() []AttrID { return ix.attrs }

// Rows returns the ascending row ids holding the packed key tuple, or nil.
// The returned slice is shared with the index and must not be mutated.
func (ix *KeyIndex) Rows(packed string) []int32 { return ix.rows[packed] }

// NumKeys returns the number of distinct key tuples.
func (ix *KeyIndex) NumKeys() int { return len(ix.rows) }

// keyIndexEntry pins the relation content an index was built from.
type keyIndexEntry struct {
	version int64
	ix      *KeyIndex
}

// KeyIndex returns the relation's join-key index over attrs (in the given
// order), building it on first use and rebuilding when the relation has
// mutated since (Version mismatch). All attrs must be discrete columns of
// the relation. Safe for concurrent use.
func (r *Relation) KeyIndex(attrs []AttrID) (*KeyIndex, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("data: relation %q: key index over no attributes", r.Name)
	}
	key := keyIndexCacheKey(attrs)
	version := r.Version()
	r.keyIdxMu.Lock()
	if e, ok := r.keyIdx[key]; ok && e.version == version {
		r.keyIdxMu.Unlock()
		return e.ix, nil
	}
	r.keyIdxMu.Unlock()

	cols := make([][]int64, len(attrs))
	for i, a := range attrs {
		c, ok := r.Col(a)
		if !ok {
			return nil, fmt.Errorf("data: relation %q: key index over missing attribute %d", r.Name, a)
		}
		if !c.IsInt() {
			return nil, fmt.Errorf("data: relation %q: key index over numeric attribute %d", r.Name, a)
		}
		cols[i] = c.Ints
	}
	ix := &KeyIndex{
		attrs: append([]AttrID(nil), attrs...),
		rows:  make(map[string][]int32, r.n),
	}
	buf := make([]byte, 0, 8*len(attrs))
	for i := 0; i < r.n; i++ {
		buf = buf[:0]
		for _, col := range cols {
			buf = AppendKey(buf, col[i])
		}
		ix.rows[string(buf)] = append(ix.rows[string(buf)], int32(i))
	}
	r.keyIdxMu.Lock()
	if r.keyIdx == nil {
		r.keyIdx = make(map[string]keyIndexEntry)
	}
	r.keyIdx[key] = keyIndexEntry{version: version, ix: ix}
	r.keyIdxMu.Unlock()
	return ix, nil
}

func keyIndexCacheKey(attrs []AttrID) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = fmt.Sprint(a)
	}
	return strings.Join(parts, ",")
}
