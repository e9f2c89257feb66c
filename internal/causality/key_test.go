package causality

import (
	"reflect"
	"testing"
)

// TestOptionsKeyCoversEveryField walks Options by reflection, perturbs one
// field at a time, and demands a distinct Key for every perturbation: a
// field the Key ignores would let crskyd serve a cached result computed
// under different options. The test fails automatically when a new field is
// added without extending Key.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	base := Options{}
	baseKey := base.Key()
	typ := reflect.TypeOf(base)

	seen := map[string]string{baseKey: "<zero>"}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v := reflect.New(typ).Elem()
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(7)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(0.5)
		case reflect.String:
			fv.SetString("x")
		default:
			t.Fatalf("field %s has kind %s: teach the key test how to perturb it", f.Name, fv.Kind())
		}
		key := v.Interface().(Options).Key()
		if key == baseKey {
			t.Errorf("field %s is not covered by Options.Key(): perturbing it left the key %q unchanged",
				f.Name, key)
			continue
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("fields %s and %s collide on key %q", prev, f.Name, key)
		}
		seen[key] = f.Name
	}
}

// TestOptionsKeyDistinguishesValues spot-checks that the Key separates
// different values of the same field, not just zero vs non-zero.
func TestOptionsKeyDistinguishesValues(t *testing.T) {
	pairs := []struct {
		a, b Options
	}{
		{Options{MaxSubsets: 10}, Options{MaxSubsets: 100}},
		{Options{Parallel: 2}, Options{Parallel: 4}},
		{Options{QuadNodes: 3}, Options{QuadNodes: 5}},
		{Options{NoRepairSeed: true}, Options{NoAdmissible: true}},
		{Options{NoAdmissible: true}, Options{NoMassOrder: true}},
	}
	for i, p := range pairs {
		if p.a.Key() == p.b.Key() {
			t.Errorf("pair %d: %+v and %+v share key %q", i, p.a, p.b, p.a.Key())
		}
	}
}
