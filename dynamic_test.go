package crsky

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/crsky/crsky/internal/skyline"
)

// TestCertainEngineDynamic exercises the public copy-on-write insert/delete
// path: an explanation changes as competitors appear and disappear.
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

	res, err := e.ExplainCtx(context.Background(), 0, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 1 || res.Causes[0].ID != 1 {
		t.Fatalf("causes = %v, want just object 1", res.Causes)
	}

	// mutate applies one COW mutation and continues on the successor.
	mutate := func(next Explainer, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		e = next.(*CertainEngine)
	}

	// A new competitor arrives: responsibilities dilute to 1/2.
	next, id, err := e.WithInsert(InsertSpec{Point: Point{30, 34}})
	mutate(next, err)
	if id != 3 {
		t.Fatalf("WithInsert returned %d", id)
	}
	res, err = e.ExplainCtx(context.Background(), 0, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 2 || res.Causes[0].Responsibility != 0.5 {
		t.Fatalf("after insert: %v", res.Causes)
	}

	// Both competitors leave: object 0 becomes an answer again.
	mutate(e.WithDelete(1))
	mutate(e.WithDelete(3))
	if _, err := e.ExplainCtx(context.Background(), 0, q, 1, Options{}); !errors.Is(err, ErrNotNonAnswer) {
		t.Fatalf("expected ErrNotNonAnswer, got %v", err)
	}
	if !e.Deleted(1) || e.Deleted(0) {
		t.Fatal("tombstone bookkeeping broken")
	}
	if _, err := e.ExplainCtx(context.Background(), 1, q, 1, Options{}); !errors.Is(err, ErrBadObject) {
		t.Fatalf("explaining a tombstone: %v", err)
	}

	// The BBRS query agrees with the pairwise oracle on the mutated engine.
	pts := make([]Point, e.Len())
	for i := range pts {
		pts[i] = e.Point(i) // nil for a tombstone
	}
	if got, want := query(t, e, q, 1, QueryOptions{}), skyline.BruteReverseSkyline(pts, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("BBRS %v vs brute force %v", got, want)
	}
}
