package dataset

import (
	"math"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

func TestNewUncertainValidation(t *testing.T) {
	good := []*uncertain.Object{
		uncertain.NewUniform(0, []geom.Point{{1, 1}, {2, 2}}),
		uncertain.Certain(1, geom.Point{3, 3}),
	}
	ds, err := NewUncertain(good)
	if err != nil {
		t.Fatalf("NewUncertain: %v", err)
	}
	if ds.Len() != 2 || ds.Dims() != 2 {
		t.Fatalf("Len/Dims = %d/%d", ds.Len(), ds.Dims())
	}

	cases := map[string][]*uncertain.Object{
		"empty":      {},
		"bad id":     {uncertain.Certain(5, geom.Point{1, 1})},
		"bad probs":  {uncertain.New(0, []uncertain.Sample{{Loc: geom.Point{1, 1}, P: 0.4}})},
		"mixed dims": {uncertain.Certain(0, geom.Point{1, 1}), uncertain.Certain(1, geom.Point{1, 2, 3})},
	}
	for name, objs := range cases {
		if _, err := NewUncertain(objs); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestUncertainTreeCaching(t *testing.T) {
	ds := MustUncertain([]*uncertain.Object{
		uncertain.NewUniform(0, []geom.Point{{1, 1}, {2, 2}}),
		uncertain.NewUniform(1, []geom.Point{{8, 8}, {9, 9}}),
	})
	t1 := ds.Tree()
	if t1.Len() != 2 {
		t.Fatalf("tree Len = %d", t1.Len())
	}
	if ds.Tree() != t1 {
		t.Fatal("Tree should be cached")
	}
	// The tree indexes object MBRs.
	hits := 0
	ds.Tree().Search(geom.NewRect(geom.Point{0, 0}, geom.Point{3, 3}),
		func(id int, r geom.Rect) bool {
			hits++
			if id != 0 {
				t.Errorf("unexpected id %d", id)
			}
			return true
		})
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestNewCertainValidation(t *testing.T) {
	if _, err := NewCertain(nil); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := NewCertain([]geom.Point{{}}); err == nil {
		t.Error("zero-dim: expected error")
	}
	if _, err := NewCertain([]geom.Point{{1, 2}, {1}}); err == nil {
		t.Error("mixed dims: expected error")
	}
	if _, err := NewCertain([]geom.Point{{math.NaN(), 1}}); err == nil {
		t.Error("NaN: expected error")
	}
	ds, err := NewCertain([]geom.Point{{1, 2}, {3, 4}})
	if err != nil || ds.Len() != 2 || ds.Dims() != 2 {
		t.Fatalf("NewCertain: %v, %d, %d", err, ds.Len(), ds.Dims())
	}
}

func TestAsUncertain(t *testing.T) {
	c := MustCertain([]geom.Point{{1, 2}, {3, 4}})
	u := c.AsUncertain()
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	for i, o := range u.Objects {
		if !o.IsCertain() || o.ID != i {
			t.Fatalf("object %d not certain-degenerate: %+v", i, o)
		}
		if !o.Loc().Equal(c.Points[i]) {
			t.Fatalf("object %d location mismatch", i)
		}
	}
}
