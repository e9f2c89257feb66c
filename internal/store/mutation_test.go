package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, st *Store, name string, m Mutation) uint64 {
	t.Helper()
	seq, err := st.AppendMutation(name, m)
	if err != nil {
		t.Fatalf("AppendMutation(%s, %+v): %v", name, m, err)
	}
	return seq
}

func wantMuts(t *testing.T, st *Store, name string, want []Mutation) {
	t.Helper()
	ds, ok := st.Get(name)
	if !ok {
		t.Fatalf("dataset %q missing", name)
	}
	if len(ds.Muts) != len(want) {
		t.Fatalf("mutation log = %+v, want %d entries", ds.Muts, len(want))
	}
	for i := range want {
		got := ds.Muts[i]
		if got.Op != want[i].Op || got.ID != want[i].ID || !bytes.Equal(got.Data, want[i].Data) {
			t.Fatalf("mutation %d = %+v, want %+v", i, got, want[i])
		}
		if got.Seq == 0 {
			t.Fatalf("mutation %d has no sequence", i)
		}
	}
}

// TestAppendMutationDurableAndReplayed covers the mutation commit path
// end to end: the log is ordered; a mutation writes no snapshot, so a
// clean reopen replays it from the WAL, and that Open re-checkpoints it;
// the next reopen finds snapshot and WAL holding the same records and
// applies each once; and with the snapshot destroyed the WAL alone
// reconverges.
func TestAppendMutationDurableAndReplayed(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	if err := st.Put("d", "sample", []byte("base")); err != nil {
		t.Fatal(err)
	}
	ins := Mutation{Op: MutInsert, ID: 10, Data: []byte("obj-10")}
	del := Mutation{Op: MutDelete, ID: 3}
	s1 := mustAppend(t, st, "d", ins)
	s2 := mustAppend(t, st, "d", del)
	if s2 <= s1 {
		t.Fatalf("sequences not increasing: %d then %d", s1, s2)
	}
	want := []Mutation{ins, del}
	wantMuts(t, st, "d", want)
	st.Close()

	// Clean reopen: the snapshot holds only the base, so the log comes
	// from the WAL; Open then re-checkpoints it into the snapshot.
	st2, rep := mustOpen(t, dir)
	wantMuts(t, st2, "d", want)
	if rep.WALTorn || len(rep.Quarantined) != 0 || rep.WALReplayed != len(want) {
		t.Fatalf("clean reopen: %+v, want %d WAL records replayed and no problems", rep, len(want))
	}
	st2.Close()

	// Second reopen: the snapshot now carries the log and the WAL still
	// holds the records — recovery must not re-apply them (no duplicates).
	st2, rep = mustOpen(t, dir)
	wantMuts(t, st2, "d", want)
	if rep.WALReplayed != 0 {
		t.Fatalf("second reopen re-applied %d WAL records already in the snapshot", rep.WALReplayed)
	}
	st2.Close()

	// Destroy the snapshot: the WAL alone must reconverge to the identical
	// post-mutation state (base register + both mutation records).
	if err := os.Remove(filepath.Join(dir, "datasets", "d.snap")); err != nil {
		t.Fatal(err)
	}
	st3, _ := mustOpen(t, dir)
	defer st3.Close()
	wantMuts(t, st3, "d", want)
	if ds, _ := st3.Get("d"); string(ds.Data) != "base" {
		t.Fatalf("base payload lost: %q", ds.Data)
	}
}

// TestAppendMutationValidation checks the error surface: unknown dataset,
// missing insert payload, bad op, negative ID — all rejected before any
// byte hits the WAL.
func TestAppendMutationValidation(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	defer st.Close()
	if err := st.Put("d", "sample", []byte("base")); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().WALAppends
	cases := []struct {
		name string
		m    Mutation
	}{
		{"ghost", Mutation{Op: MutDelete, ID: 0}},
		{"d", Mutation{Op: MutInsert, ID: 0}},            // no payload
		{"d", Mutation{Op: "upsert", Data: []byte("x")}}, // unknown op
		{"d", Mutation{Op: MutDelete, ID: -1}},
	}
	for _, c := range cases {
		if _, err := st.AppendMutation(c.name, c.m); err == nil {
			t.Fatalf("AppendMutation(%s, %+v) accepted", c.name, c.m)
		}
	}
	if got := st.Stats().WALAppends; got != before {
		t.Fatalf("rejected mutations reached the WAL: %d appends -> %d", before, got)
	}
}

// TestRegisterResetsMutationLog: a re-register (Put) supersedes the whole
// base+mutations state, so the log starts empty again — and recovery
// agrees.
func TestRegisterResetsMutationLog(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	if err := st.Put("d", "sample", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "d", Mutation{Op: MutDelete, ID: 0})
	if err := st.Put("d", "sample", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	wantMuts(t, st, "d", nil)
	st.Close()

	st2, _ := mustOpen(t, dir)
	defer st2.Close()
	wantMuts(t, st2, "d", nil)
	if ds, _ := st2.Get("d"); string(ds.Data) != "v2" {
		t.Fatalf("recovered payload = %q", ds.Data)
	}
}

// TestTornMutationTailTruncated: a mutation record torn mid-write is cut
// away cleanly; everything committed before it survives.
func TestTornMutationTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	if err := st.Put("d", "sample", []byte("base")); err != nil {
		t.Fatal(err)
	}
	ins := Mutation{Op: MutInsert, ID: 1, Data: []byte("kept")}
	mustAppend(t, st, "d", ins)
	st.Close()

	// Fabricate a torn mutation append: a valid frame with its tail cut off.
	frame, err := encodeWALRecord(walRecord{Seq: 99, Op: opInsert, Name: "d", ObjID: 2, Data: []byte("torn-away")})
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, rep := mustOpen(t, dir)
	defer st2.Close()
	if !rep.WALTorn {
		t.Fatalf("torn mutation tail not reported: %+v", rep)
	}
	wantMuts(t, st2, "d", []Mutation{ins})
	// The truncated WAL accepts new appends cleanly.
	mustAppend(t, st2, "d", Mutation{Op: MutDelete, ID: 0})
}

// TestOrphanMutationQuarantinedNotFatal: a WAL mutation record for a
// dataset the store does not know is surfaced on the corrupt list but
// never aborts recovery — the healthy datasets keep serving.
func TestOrphanMutationQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	if err := st.Put("healthy", "certain", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	frame, err := encodeWALRecord(walRecord{Seq: 50, Op: opDelete, Name: "ghost", ObjID: 1})
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, rep := mustOpen(t, dir)
	defer st2.Close()
	if ds, ok := st2.Get("healthy"); !ok || string(ds.Data) != "fine" {
		t.Fatalf("healthy dataset lost: %+v %v", ds, ok)
	}
	if _, ok := st2.Get("ghost"); ok {
		t.Fatal("orphan mutation conjured a dataset")
	}
	found := false
	for _, q := range rep.Quarantined {
		if q.Dataset == "ghost" && strings.Contains(q.Reason, "unknown dataset") {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphan mutation not on the corrupt list: %+v", rep.Quarantined)
	}
	if st2.CorruptTotal() == 0 {
		t.Fatal("orphan mutation not counted")
	}
}

// TestCompactionFoldsMutationLog: compaction checkpoints base+log into the
// snapshot and drops the per-mutation WAL records; recovery from the
// compacted state is identical.
func TestCompactionFoldsMutationLog(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	if err := st.Put("d", "sample", []byte("base")); err != nil {
		t.Fatal(err)
	}
	want := []Mutation{
		{Op: MutInsert, ID: 5, Data: []byte("a")},
		{Op: MutDelete, ID: 2},
		{Op: MutInsert, ID: 6, Data: []byte("b")},
	}
	for _, m := range want {
		mustAppend(t, st, "d", m)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wantMuts(t, st, "d", want)
	st.Close()

	st2, rep := mustOpen(t, dir)
	defer st2.Close()
	if rep.WALReplayed != 0 {
		t.Fatalf("compacted store replayed %d WAL records", rep.WALReplayed)
	}
	wantMuts(t, st2, "d", want)

	// fsck agrees: the snapshot reports its checkpointed log length.
	frep, err := Fsck(nil, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !frep.Healthy() {
		t.Fatalf("compacted store unhealthy: %+v", frep)
	}
	if len(frep.Snapshots) != 1 || frep.Snapshots[0].Muts != len(want) {
		t.Fatalf("fsck snapshot muts = %+v, want %d", frep.Snapshots, len(want))
	}
}

// TestFsckCountsWALMutations: the verify pass separates mutation records
// from the rest.
func TestFsckCountsWALMutations(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	if err := st.Put("d", "sample", []byte("base")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "d", Mutation{Op: MutInsert, ID: 1, Data: []byte("x")})
	mustAppend(t, st, "d", Mutation{Op: MutDelete, ID: 0})
	st.Close()

	rep, err := Fsck(nil, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALMutations != 2 {
		t.Fatalf("WALMutations = %d, want 2", rep.WALMutations)
	}
	if rep.WALRecords != 3 {
		t.Fatalf("WALRecords = %d, want 3 (register + 2 mutations)", rep.WALRecords)
	}
}
