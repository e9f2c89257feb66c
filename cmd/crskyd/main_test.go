package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/crsky/crsky/internal/server"
	"github.com/crsky/crsky/internal/store"
)

func TestPreload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	if err := os.WriteFile(path, []byte("4,4\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{})
	if err := preload(srv, "demo=certain="+path); err != nil {
		t.Fatalf("preload: %v", err)
	}

	for _, bad := range []string{
		"demo",                      // missing fields
		"demo=certain",              // missing path
		"demo=certain=/no/such.csv", // unreadable file
		"demo=wat=" + path,          // unknown model
	} {
		if err := preload(srv, bad); err == nil {
			t.Errorf("preload(%q) succeeded, want error", bad)
		}
	}
}

func TestPreloadFlagAccumulates(t *testing.T) {
	var p preloadFlag
	if err := p.Set("a=certain=x"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("b=sample=y"); err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p.String() != "a=certain=x,b=sample=y" {
		t.Fatalf("preloadFlag = %v", p)
	}
}

// TestFsckExitCodes drives the offline store checker: 0 on a healthy data
// directory (its -json report decodes and names the dataset), 1 once a
// snapshot is corrupted, 2 without -data-dir.
func TestFsckExitCodes(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("demo", server.ModelCertain, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Compact leaves the snapshot as the dataset's only copy, so its
	// corruption below cannot be covered by the WAL's register record.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	fsck := func(args ...string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := cmdFsck(args, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}
	if code, out := fsck("-data-dir", dir); code != 0 {
		t.Fatalf("healthy directory: exit %d, want 0:\n%s", code, out)
	}
	code, out := fsck("-data-dir", dir, "-json")
	var rep store.FsckReport
	if err := json.Unmarshal([]byte(out), &rep); code != 0 || err != nil || !rep.Healthy() || !slices.Equal(rep.Datasets, []string{"demo"}) {
		t.Fatalf("healthy directory with -json: exit %d, decode error %v, report:\n%s", code, err, out)
	}

	snap := filepath.Join(dir, "datasets", "demo.snap")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := fsck("-data-dir", dir); code != 1 {
		t.Fatalf("corrupted snapshot: exit %d, want 1:\n%s", code, out)
	}

	if code, out := fsck(); code != 2 {
		t.Fatalf("no -data-dir: exit %d, want 2:\n%s", code, out)
	}
}
