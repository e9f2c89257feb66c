package crsky

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

func randSampleObjects(rng *rand.Rand, n, samples int) []*Object {
	objs := make([]*Object, n)
	for i := range objs {
		locs := make([]Point, samples)
		for j := range locs {
			cx, cy := rng.Float64()*100, rng.Float64()*100
			locs[j] = Point{cx + rng.Float64()*4, cy + rng.Float64()*4}
		}
		objs[i] = NewUniformObject(i, locs)
	}
	return objs
}

// TestEngineWithMutations checks the COW mutation contract on the sample
// model: the receiver never changes, the successor is exactly the engine a
// from-scratch build over the mutated data would be, and tombstoned IDs
// become permanently invalid.
func TestEngineWithMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	objs := randSampleObjects(rng, 60, 3)
	e0, err := NewEngine(objs)
	if err != nil {
		t.Fatal(err)
	}
	e0.Warm()
	q := Point{50, 50}
	base := query(t, e0, q, 0.3, QueryOptions{})

	// Delete one answer object, insert a fresh one.
	if len(base) == 0 {
		t.Fatal("test data produced no answers")
	}
	victim := base[0]
	v1, err := e0.WithDelete(victim)
	if err != nil {
		t.Fatal(err)
	}
	e1 := v1.(*Engine)
	spec := InsertSpec{Samples: []Sample{{Loc: Point{70, 70}, P: 0.5}, {Loc: Point{72, 71}, P: 0.5}}}
	v2, id, err := e1.WithInsert(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id != e0.Len() {
		t.Fatalf("insert ID = %d, want next slot %d", id, e0.Len())
	}
	e2 := v2.(*Engine)

	// The receiver is untouched: same answers, same object count.
	if got := query(t, e0, q, 0.3, QueryOptions{}); !reflect.DeepEqual(got, base) {
		t.Fatalf("receiver answers changed: %v -> %v", base, got)
	}
	if e0.Object(victim) == nil {
		t.Fatal("delete leaked into the receiver")
	}

	// The successor agrees with a from-scratch engine over the same data.
	live := make([]*Object, 0, e2.Len())
	for i := 0; i < e2.Len(); i++ {
		if o := e2.Object(i); o != nil {
			live = append(live, NewUniformObject(len(live), samplesLocs(o)))
		}
	}
	got := query(t, e2, q, 0.3, QueryOptions{})
	naive := e2.ProbabilisticReverseSkylineNaive(q, 0.3)
	if !reflect.DeepEqual(got, naive) {
		t.Fatalf("accelerated %v vs naive %v on mutated engine", got, naive)
	}
	for _, a := range got {
		if a == victim {
			t.Fatalf("deleted object %d still answers", victim)
		}
	}

	// Tombstone IDs are permanently invalid.
	if _, err := e2.WithDelete(victim); !errors.Is(err, ErrBadObject) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := e2.ExplainCtx(context.Background(), victim, q, 0.3, Options{}); !errors.Is(err, ErrBadObject) {
		t.Fatalf("explaining a tombstone: %v", err)
	}
	if pr := e2.Prob(victim, q); pr != 0 {
		t.Fatalf("tombstone Prob = %v", pr)
	}

	// Replaying the same mutation log on a fresh engine reconverges.
	r0, err := NewEngine(randSampleObjects(rand.New(rand.NewSource(41)), 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := r0.WithDelete(victim)
	if err != nil {
		t.Fatal(err)
	}
	r2, rid, err := r1.(*Engine).WithInsert(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rid != id {
		t.Fatalf("replayed insert ID %d, want %d", rid, id)
	}
	rids, _, err := r2.QueryCtx(context.Background(), q, 0.3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rids, got) {
		t.Fatalf("replay diverged: %v vs %v", rids, got)
	}
}

func samplesLocs(o *Object) []Point {
	locs := make([]Point, len(o.Samples))
	for i, s := range o.Samples {
		locs[i] = s.Loc
	}
	return locs
}

// TestCertainEngineWithMutations checks that the successor of a COW delete
// keeps verification and repair working: the Section-4 reduction is
// repaired incrementally, carrying the tombstone, instead of becoming
// unbuildable as with the legacy in-place Delete.
func TestCertainEngineWithMutations(t *testing.T) {
	e0, err := NewCertainEngine([]Point{
		{40, 40}, // 0: the non-answer
		{25, 25}, // 1: dominates q w.r.t. 0
		{30, 34}, // 2: second competitor
		{-80, 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	e0.Warm()
	q := Point{10, 10}
	ctx := context.Background()

	res0, err := e0.ExplainCtx(ctx, 0, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Causes) != 2 {
		t.Fatalf("base causes = %v", res0.Causes)
	}

	v1, err := e0.WithDelete(2)
	if err != nil {
		t.Fatal(err)
	}
	e1 := v1.(*CertainEngine)
	res1, err := e1.ExplainCtx(ctx, 0, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Causes) != 1 || res1.Causes[0].ID != 1 {
		t.Fatalf("post-delete causes = %v, want just object 1", res1.Causes)
	}
	// Verification and repair must survive the tombstone (the incremental
	// reduction repair is exactly what makes this work).
	if err := e1.VerifyCtx(ctx, q, 1, res1); err != nil {
		t.Fatalf("verify on mutated engine: %v", err)
	}
	rep, err := e1.RepairCtx(ctx, 0, q, 1, Options{})
	if err != nil {
		t.Fatalf("repair on mutated engine: %v", err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != 1 {
		t.Fatalf("repair = %+v, want remove [1]", rep)
	}

	// The receiver still sees object 2.
	if e0.Deleted(2) {
		t.Fatal("delete leaked into the receiver")
	}
	res0b, err := e0.ExplainCtx(ctx, 0, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res0b.Causes) != 2 {
		t.Fatalf("receiver causes changed: %v", res0b.Causes)
	}

	// Insert through the COW path: next positional ID, receiver untouched.
	v2, id, err := e1.WithInsert(InsertSpec{Point: Point{26, 26}})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("insert ID = %d, want 4", id)
	}
	e2 := v2.(*CertainEngine)
	res2, err := e2.ExplainCtx(ctx, 0, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Causes) != 2 {
		t.Fatalf("post-insert causes = %v", res2.Causes)
	}
	if err := e2.VerifyCtx(ctx, q, 1, res2); err != nil {
		t.Fatalf("verify after insert: %v", err)
	}
	if e1.Len() != 4 {
		t.Fatal("insert leaked into the receiver")
	}
}

// TestPDFEngineWithMutations checks the COW contract on the continuous
// model, including that the payload object's ID is restamped.
func TestPDFEngineWithMutations(t *testing.T) {
	mk := func(x, y float64) Rect { return geom.NewRect(Point{x, y}, Point{x + 4, y + 4}) }
	e0, err := NewPDFEngine([]*PDFObject{
		NewUniformPDFObject(0, mk(20, 20)),
		NewUniformPDFObject(1, mk(10, 10)),
		NewUniformPDFObject(2, mk(80, 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e0.Warm()
	q := Point{5, 5}
	base := query(t, e0, q, 0.5, QueryOptions{})

	v1, err := e0.WithDelete(1)
	if err != nil {
		t.Fatal(err)
	}
	e1 := v1.(*PDFEngine)
	if got := query(t, e0, q, 0.5, QueryOptions{}); !reflect.DeepEqual(got, base) {
		t.Fatalf("receiver answers changed: %v -> %v", base, got)
	}
	if got, naive := query(t, e1, q, 0.5, QueryOptions{}), e1.ProbabilisticReverseSkylineNaive(q, 0.5, 0); !reflect.DeepEqual(got, naive) {
		t.Fatalf("accelerated %v vs naive %v on mutated engine", got, naive)
	}

	payload := NewUniformPDFObject(99, mk(12, 12)) // wrong ID on purpose
	v2, id, err := e1.WithInsert(InsertSpec{PDF: payload})
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("insert ID = %d, want 3", id)
	}
	e2 := v2.(*PDFEngine)
	if e2.Object(3).ID != 3 {
		t.Fatalf("payload ID not restamped: %d", e2.Object(3).ID)
	}
	if payload.ID != 99 {
		t.Fatal("caller's payload object was mutated")
	}
	if got, naive := query(t, e2, q, 0.5, QueryOptions{}), e2.ProbabilisticReverseSkylineNaive(q, 0.5, 0); !reflect.DeepEqual(got, naive) {
		t.Fatalf("accelerated %v vs naive %v after insert", got, naive)
	}
	if _, err := e2.WithDelete(1); !errors.Is(err, ErrBadObject) {
		t.Fatalf("double delete: %v", err)
	}

	// Model-mismatched specs are rejected on every engine.
	if _, _, err := e1.WithInsert(InsertSpec{Point: Point{1, 2}}); err == nil {
		t.Fatal("pdf engine accepted a certain-model spec")
	}
}
