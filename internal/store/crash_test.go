package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/faultinject"
	"github.com/crsky/crsky/internal/store"
)

// crashOp is one step of a crash-matrix scenario.
type crashOp struct {
	kind  string // put | del | mut | compact
	name  string
	model string
	data  []byte
	mut   store.Mutation // kind mut: the object mutation to append
}

// scenario covers every protocol phase as a crash point: WAL appends,
// snapshot writes and renames, deletions, object mutations and a
// compaction, across payloads tagged with all three dataset models. An
// object mutation commits at its WAL append alone, so the compaction is
// the first snapshot to hold the mutations made before it.
func scenario() []crashOp {
	return []crashOp{
		{kind: "put", name: "cert", model: "certain", data: []byte("certain-v1-points")},
		{kind: "put", name: "samp", model: "sample", data: bytes.Repeat([]byte("sample-v1"), 37)},
		{kind: "put", name: "pdf", model: "pdf", data: []byte("pdf-v1-specs")},
		{kind: "put", name: "cert", model: "certain", data: []byte("certain-v2-points-replaced")},
		{kind: "mut", name: "cert", mut: store.Mutation{Op: store.MutInsert, ID: 4, Data: []byte("certain-obj-4")}},
		{kind: "mut", name: "samp", mut: store.Mutation{Op: store.MutDelete, ID: 2}},
		{kind: "mut", name: "cert", mut: store.Mutation{Op: store.MutDelete, ID: 1}},
		{kind: "del", name: "samp"},
		{kind: "compact"},
		{kind: "mut", name: "cert", mut: store.Mutation{Op: store.MutDelete, ID: 4}},
		{kind: "put", name: "samp", model: "sample", data: []byte("sample-v2-reborn")},
		{kind: "mut", name: "cert", mut: store.Mutation{Op: store.MutInsert, ID: 5, Data: []byte("certain-obj-5")}},
		{kind: "del", name: "pdf"},
		{kind: "put", name: "late", model: "certain", data: bytes.Repeat([]byte("late"), 91)},
		{kind: "mut", name: "late", mut: store.Mutation{Op: store.MutInsert, ID: 9, Data: bytes.Repeat([]byte("obj"), 40)}},
	}
}

// apply mutates the model state map with one op.
func apply(state map[string]store.Dataset, op crashOp) {
	switch op.kind {
	case "put":
		state[op.name] = store.Dataset{Name: op.name, Model: op.model, Data: op.data}
	case "del":
		delete(state, op.name)
	case "mut":
		ds := state[op.name]
		// A fresh slice: cloned states share the old one.
		ds.Muts = append(append([]store.Mutation(nil), ds.Muts...), op.mut)
		state[op.name] = ds
	}
}

func cloneState(m map[string]store.Dataset) map[string]store.Dataset {
	out := make(map[string]store.Dataset, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func statesEqual(a, b map[string]store.Dataset) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.Model != bv.Model || !bytes.Equal(av.Data, bv.Data) || len(av.Muts) != len(bv.Muts) {
			return false
		}
		for i, am := range av.Muts {
			bm := bv.Muts[i]
			if am.Op != bm.Op || am.ID != bm.ID || !bytes.Equal(am.Data, bm.Data) {
				return false
			}
		}
	}
	return true
}

func describe(m map[string]store.Dataset) string {
	s := "{"
	for k, v := range m {
		s += fmt.Sprintf("%s=%s/%dB+%dmuts ", k, v.Model, len(v.Data), len(v.Muts))
	}
	return s + "}"
}

// runScenario executes the ops against st, stopping at the first error
// (the simulated crash). It returns the state after the last acknowledged
// op and the in-flight op (nil if all ops acked).
func runScenario(st *store.Store, ops []crashOp) (acked map[string]store.Dataset, inflight *crashOp) {
	acked = make(map[string]store.Dataset)
	for i := range ops {
		op := ops[i]
		var err error
		switch op.kind {
		case "put":
			err = st.Put(op.name, op.model, op.data)
		case "del":
			err = st.Delete(op.name)
		case "mut":
			_, err = st.AppendMutation(op.name, op.mut)
		case "compact":
			err = st.Compact()
		}
		if err != nil {
			return acked, &ops[i]
		}
		apply(acked, op)
	}
	return acked, nil
}

// TestCrashRecoveryMatrix loops a simulated kill-the-process crash across
// EVERY filesystem mutation of the snapshot+WAL protocol — WAL header and
// record writes (object mutations included), fsyncs, snapshot temp writes,
// renames, removals, and the compaction swap — in both clean-cut and
// torn-final-write modes, and asserts the recovery invariant: the reopened
// store holds exactly the acknowledged state, except that the single
// in-flight operation may have landed (new) or not (old) — never a hybrid,
// never a lost ack.
func TestCrashRecoveryMatrix(t *testing.T) {
	ops := scenario()

	// Size the crash loop: count every mutation op of a clean run.
	countDir := t.TempDir()
	counter := faultinject.NewCrashFS(nil, -1, false, 1)
	st, _, err := store.Open(countDir, store.Options{Fsync: true, FS: counter})
	if err != nil {
		t.Fatalf("counting open: %v", err)
	}
	if acked, inflight := runScenario(st, ops); inflight != nil {
		t.Fatalf("counting run crashed: %+v (acked %v)", inflight, acked)
	}
	st.Close()
	total := counter.Ops()
	if total < 20 {
		t.Fatalf("scenario exercises only %d mutations — too few for a matrix", total)
	}

	// A budget of k crashes the (k+1)-th mutation, so budgets 0..total-1
	// place the crash on every mutation of the protocol exactly once.
	for _, torn := range []bool{false, true} {
		for crash := int64(0); crash < total; crash++ {
			name := fmt.Sprintf("torn=%v/crash=%d", torn, crash)
			dir := t.TempDir()
			cfs := faultinject.NewCrashFS(nil, crash, torn, crash*7+3)

			var acked map[string]store.Dataset
			var inflight *crashOp
			st, _, err := store.Open(dir, store.Options{Fsync: true, FS: cfs})
			if err != nil {
				// Crash during the very first open: nothing was ever
				// acknowledged, so recovery must come up empty.
				acked = map[string]store.Dataset{}
			} else {
				acked, inflight = runScenario(st, ops)
				st.Close()
			}
			if !cfs.Crashed() {
				t.Fatalf("%s: crash point never fired", name)
			}

			// Reboot: recover on a clean filesystem.
			rec, rep, err := store.Open(dir, store.Options{Fsync: true})
			if err != nil {
				t.Fatalf("%s: recovery open failed: %v", name, err)
			}
			got := make(map[string]store.Dataset)
			for _, ds := range rec.Datasets() {
				got[ds.Name] = ds
			}
			rec.Close()

			okOld := statesEqual(got, acked)
			okNew := false
			if inflight != nil {
				withNew := cloneState(acked)
				apply(withNew, *inflight)
				okNew = statesEqual(got, withNew)
			}
			if !okOld && !okNew {
				t.Fatalf("%s: recovered state is neither old nor new\n  acked:    %s\n  inflight: %+v\n  got:      %s\n  report:   %+v",
					name, describe(acked), inflight, describe(got), rep)
			}

			// A second recovery of the repaired directory must be clean
			// and idempotent.
			rec2, rep2, err := store.Open(dir, store.Options{Fsync: true})
			if err != nil {
				t.Fatalf("%s: second recovery failed: %v", name, err)
			}
			got2 := make(map[string]store.Dataset)
			for _, ds := range rec2.Datasets() {
				got2[ds.Name] = ds
			}
			rec2.Close()
			if rep2.WALTorn {
				t.Errorf("%s: second recovery still sees a torn WAL", name)
			}
			if !statesEqual(got, got2) {
				t.Errorf("%s: recovery not idempotent: %s vs %s", name, describe(got), describe(got2))
			}
		}
	}
}

// TestCrashRecoveryRandomizedSequences drives randomized op sequences ×
// randomized crash points (seeded, replayable) as a matrix densifier over
// the deterministic scenario above.
func TestCrashRecoveryRandomizedSequences(t *testing.T) {
	models := []string{"certain", "sample", "pdf"}
	names := []string{"a", "b", "c"}
	const rounds = 24
	for round := 0; round < rounds; round++ {
		seed := int64(round + 1)
		rng := rand.New(rand.NewSource(seed))
		var ops []crashOp
		n := 4 + rng.Intn(6)
		for i := 0; i < n; i++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, crashOp{kind: "del", name: name})
			case 1:
				ops = append(ops, crashOp{kind: "compact"})
			default:
				payload := make([]byte, 1+rng.Intn(200))
				rng.Read(payload)
				ops = append(ops, crashOp{kind: "put", name: name,
					model: models[rng.Intn(len(models))], data: payload})
			}
		}

		countDir := t.TempDir()
		counter := faultinject.NewCrashFS(nil, -1, false, seed)
		st, _, err := store.Open(countDir, store.Options{Fsync: true, FS: counter})
		if err != nil {
			t.Fatal(err)
		}
		runScenario(st, ops)
		st.Close()
		total := counter.Ops()

		crash := rng.Int63n(total)
		torn := rng.Intn(2) == 1
		dir := t.TempDir()
		cfs := faultinject.NewCrashFS(nil, crash, torn, seed*31)
		var acked map[string]store.Dataset
		var inflight *crashOp
		st2, _, err := store.Open(dir, store.Options{Fsync: true, FS: cfs})
		if err != nil {
			acked = map[string]store.Dataset{}
		} else {
			acked, inflight = runScenario(st2, ops)
			st2.Close()
		}

		rec, _, err := store.Open(dir, store.Options{Fsync: true})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		got := make(map[string]store.Dataset)
		for _, ds := range rec.Datasets() {
			got[ds.Name] = ds
		}
		rec.Close()

		okOld := statesEqual(got, acked)
		okNew := false
		if inflight != nil {
			withNew := cloneState(acked)
			apply(withNew, *inflight)
			okNew = statesEqual(got, withNew)
		}
		if !okOld && !okNew {
			t.Fatalf("seed %d crash %d torn %v: recovered %s, acked %s, inflight %+v",
				seed, crash, torn, describe(got), describe(acked), inflight)
		}
	}
}

// TestAppendMutationWritePath pins an object mutation's cost to the
// mutation, not the dataset: with fsync on, one AppendMutation makes two
// filesystem operations, the WAL write and its sync, and writes no
// snapshot. A reopen then rebuilds the log from the WAL alone, because
// the snapshot on disk still holds only the registered base.
func TestAppendMutationWritePath(t *testing.T) {
	dir := t.TempDir()
	cfs := faultinject.NewCrashFS(nil, -1, false, 1)
	st, _, err := store.Open(dir, store.Options{Fsync: true, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("d", "certain", bytes.Repeat([]byte("base"), 4096)); err != nil {
		t.Fatal(err)
	}
	snaps := st.Stats().SnapshotsWritten
	const n = 24
	var want []store.Mutation
	for i := 0; i < n; i++ {
		m := store.Mutation{Op: store.MutDelete, ID: i}
		if i%2 == 1 {
			m = store.Mutation{Op: store.MutInsert, ID: 100 + i, Data: []byte(fmt.Sprintf("obj-%d", i))}
		}
		before := cfs.Ops()
		if _, err := st.AppendMutation("d", m); err != nil {
			t.Fatal(err)
		}
		if ops := cfs.Ops() - before; ops != 2 {
			t.Fatalf("mutation %d made %d filesystem operations, want 2 (WAL write and sync)", i, ops)
		}
		if got := st.Stats().SnapshotsWritten; got != snaps {
			t.Fatalf("mutation %d wrote a snapshot: %d written, %d before", i, got, snaps)
		}
		want = append(want, m)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	frep, err := store.Fsck(nil, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(frep.Snapshots) != 1 || frep.Snapshots[0].Muts != 0 || frep.WALMutations != n {
		t.Fatalf("on disk: snapshots %+v, %d WAL mutations; want the base alone and %d in the WAL",
			frep.Snapshots, frep.WALMutations, n)
	}
	st2, rep, err := store.Open(dir, store.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.WALReplayed != n {
		t.Fatalf("reopen replayed %d WAL records, want %d", rep.WALReplayed, n)
	}
	got := map[string]store.Dataset{}
	for _, ds := range st2.Datasets() {
		got[ds.Name] = ds
	}
	wantState := map[string]store.Dataset{"d": {Model: "certain", Data: bytes.Repeat([]byte("base"), 4096), Muts: want}}
	if !statesEqual(got, wantState) {
		t.Fatalf("reopen recovered %s, want %s", describe(got), describe(wantState))
	}
}
