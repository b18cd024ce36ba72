package main

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
)

// liveGen generates update batches against the live state of a database it
// mirrors. A sharded session partitions copies of its source relations, so
// the caller's database stops being the live state after construction; the
// generator keeps its own copy of every tuple, draws deletes from it and
// applies each batch it hands out to it, so every delete names a tuple that
// is present when the batch is applied.
type liveGen struct {
	rng  *rand.Rand
	src  *data.Database // attribute registry and schemas
	rels map[string]*liveRel
}

// liveRel is one relation's live tuples, column-major.
type liveRel struct {
	cols []data.Column
}

func (r *liveRel) len() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].Len()
}

func newLiveGen(db *data.Database, seed int64) *liveGen {
	g := &liveGen{rng: rand.New(rand.NewSource(seed)), src: db, rels: map[string]*liveRel{}}
	for _, rel := range db.Relations() {
		lr := &liveRel{cols: make([]data.Column, len(rel.Cols))}
		for ci, c := range rel.Cols {
			if c.IsInt() {
				lr.cols[ci] = data.NewIntColumn(append([]int64(nil), c.Ints...))
			} else {
				lr.cols[ci] = data.NewFloatColumn(append([]float64(nil), c.Floats...))
			}
		}
		g.rels[rel.Name] = lr
	}
	return g
}

// delta returns a size-neutral batch of about n rows for relation: n/2
// deletes of live tuples and n/2 inserts cloned from live tuples with every
// numeric value scaled by a random factor in [0.9, 1.1), so inserted values
// are not dyadic. The batch is applied to the mirror before it is returned.
func (g *liveGen) delta(relation string, n int) (data.Delta, error) {
	lr := g.rels[relation]
	if lr == nil {
		return data.Delta{}, fmt.Errorf("livegen: unknown relation %q", relation)
	}
	half := max(n/2, 1)
	if 2*half > lr.len() {
		return data.Delta{}, fmt.Errorf("livegen: %s has %d live rows, too few for a %d-row batch", relation, lr.len(), 2*half)
	}
	del := make([]data.Column, len(lr.cols))
	ins := make([]data.Column, len(lr.cols))
	for ci, c := range lr.cols {
		if c.IsInt() {
			del[ci] = data.NewIntColumn(make([]int64, 0, half))
			ins[ci] = data.NewIntColumn(make([]int64, 0, half))
		} else {
			del[ci] = data.NewFloatColumn(make([]float64, 0, half))
			ins[ci] = data.NewFloatColumn(make([]float64, 0, half))
		}
	}
	for k := 0; k < half; k++ {
		r := g.rng.Intn(lr.len())
		last := lr.len() - 1
		for ci := range lr.cols {
			c := &lr.cols[ci]
			if c.IsInt() {
				del[ci].Ints = append(del[ci].Ints, c.Ints[r])
				c.Ints[r] = c.Ints[last]
				c.Ints = c.Ints[:last]
			} else {
				del[ci].Floats = append(del[ci].Floats, c.Floats[r])
				c.Floats[r] = c.Floats[last]
				c.Floats = c.Floats[:last]
			}
		}
	}
	for k := 0; k < half; k++ {
		r := g.rng.Intn(lr.len())
		for ci, c := range lr.cols {
			if c.IsInt() {
				ins[ci].Ints = append(ins[ci].Ints, c.Ints[r])
			} else {
				ins[ci].Floats = append(ins[ci].Floats, c.Floats[r]*(0.9+0.2*g.rng.Float64()))
			}
		}
	}
	for ci := range lr.cols {
		c := &lr.cols[ci]
		if c.IsInt() {
			c.Ints = append(c.Ints, ins[ci].Ints...)
		} else {
			c.Floats = append(c.Floats, ins[ci].Floats...)
		}
	}
	return data.Delta{Relation: relation, Inserts: ins, Deletes: del}, nil
}

// database builds a fresh database holding the live tuples, with the
// source's attribute registry, so queries built against the source run
// over it unchanged.
func (g *liveGen) database() (*data.Database, error) {
	db := data.NewDatabase()
	for id := 0; id < g.src.NumAttrs(); id++ {
		a := g.src.Attribute(data.AttrID(id))
		if got := db.Attr(a.Name, a.Kind); got != data.AttrID(id) {
			return nil, fmt.Errorf("livegen: attribute %q registered as %d, want %d", a.Name, got, id)
		}
	}
	for _, rel := range g.src.Relations() {
		lr := g.rels[rel.Name]
		cols := make([]data.Column, len(lr.cols))
		for ci, c := range lr.cols {
			if c.IsInt() {
				cols[ci] = data.NewIntColumn(append([]int64(nil), c.Ints...))
			} else {
				cols[ci] = data.NewFloatColumn(append([]float64(nil), c.Floats...))
			}
		}
		if err := db.AddRelation(data.NewRelation(rel.Name, rel.Attrs, cols)); err != nil {
			return nil, err
		}
	}
	return db, nil
}
