package crsky

import (
	"errors"
	"reflect"
	"testing"
)

// TestCertainEngineDynamic exercises the public insert/delete path: an
// explanation changes as competitors appear and disappear.
func TestCertainEngineDynamic(t *testing.T) {
	e, err := NewCertainEngine([]Point{
		{40, 40}, // 0: will be the non-answer
		{25, 25}, // 1: dominates q w.r.t. 0
		{-80, 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Point{10, 10}

	res, err := e.Explain(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 1 || res.Causes[0].ID != 1 {
		t.Fatalf("causes = %v, want just object 1", res.Causes)
	}

	// A new competitor arrives: responsibilities dilute to 1/2.
	id := e.Insert(Point{30, 34})
	if id != 3 {
		t.Fatalf("Insert returned %d", id)
	}
	res, err = e.Explain(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 2 || res.Causes[0].Responsibility != 0.5 {
		t.Fatalf("after insert: %v", res.Causes)
	}

	// Both competitors leave: object 0 becomes an answer again.
	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explain(0, q); !errors.Is(err, ErrNotNonAnswer) {
		t.Fatalf("expected ErrNotNonAnswer, got %v", err)
	}
	if !e.Deleted(1) || e.Deleted(0) {
		t.Fatal("tombstone bookkeeping broken")
	}
	if _, err := e.Explain(1, q); !errors.Is(err, ErrBadObject) {
		t.Fatalf("explaining a tombstone: %v", err)
	}

	// The BBRS query agrees with the scan on the mutated engine.
	if got, want := query(t, e, q, 1, QueryOptions{}), e.ReverseSkyline(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("BBRS %v vs scan %v", got, want)
	}
}
