package data

import (
	"reflect"
	"testing"
)

func keyIndexFixture(t *testing.T) *Relation {
	t.Helper()
	db := NewDatabase()
	a := db.Attr("a", Key)
	b := db.Attr("b", Key)
	x := db.Attr("x", Numeric)
	rel := NewRelation("R", []AttrID{a, b, x}, []Column{
		NewIntColumn([]int64{1, 2, 1, 3, 2, 1}),
		NewIntColumn([]int64{10, 20, 10, 30, 21, 11}),
		NewFloatColumn([]float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}),
	})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestKeyIndexLookup(t *testing.T) {
	rel := keyIndexFixture(t)
	a, b := rel.Attrs[0], rel.Attrs[1]

	ix, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Rows(PackKey(1)); !reflect.DeepEqual(got, []int32{0, 2, 5}) {
		t.Fatalf("rows for a=1: got %v", got)
	}
	if got := ix.Rows(PackKey(3)); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("rows for a=3: got %v", got)
	}
	if got := ix.Rows(PackKey(99)); got != nil {
		t.Fatalf("rows for absent key: got %v", got)
	}
	if ix.NumKeys() != 3 {
		t.Fatalf("NumKeys = %d, want 3", ix.NumKeys())
	}

	// Composite key follows the attr order given.
	ix2, err := rel.KeyIndex([]AttrID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.Rows(PackKey(1, 10)); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("rows for (1,10): got %v", got)
	}
	if got := ix2.Rows(PackKey(10, 1)); got != nil {
		t.Fatalf("reversed key order must miss: got %v", got)
	}
}

func TestKeyIndexCacheAndInvalidation(t *testing.T) {
	rel := keyIndexFixture(t)
	a := rel.Attrs[0]

	ix1, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Fatal("unchanged relation must reuse the cached index")
	}

	// Mutate: the next fetch must rebuild and see the new row.
	if err := rel.Append([]Column{
		NewIntColumn([]int64{7}), NewIntColumn([]int64{70}), NewFloatColumn([]float64{7.5}),
	}); err != nil {
		t.Fatal(err)
	}
	ix3, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if ix3 == ix1 {
		t.Fatal("mutation must invalidate the cached index")
	}
	if got := ix3.Rows(PackKey(7)); !reflect.DeepEqual(got, []int32{6}) {
		t.Fatalf("rows for appended key: got %v", got)
	}
}

func TestKeyIndexErrors(t *testing.T) {
	rel := keyIndexFixture(t)
	x := rel.Attrs[2] // numeric
	if _, err := rel.KeyIndex(nil); err == nil {
		t.Fatal("empty attr list must error")
	}
	if _, err := rel.KeyIndex([]AttrID{x}); err == nil {
		t.Fatal("numeric attribute must error")
	}
	if _, err := rel.KeyIndex([]AttrID{AttrID(99)}); err == nil {
		t.Fatal("missing attribute must error")
	}
}
