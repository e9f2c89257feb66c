package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, results []prsqResult) string {
	t.Helper()
	rep := prsqReport{Experiment: "prsq", Alpha: 0.5, Dims: 3, Family: "lUrU", Seed: 1, Results: results}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPRSQCompare(t *testing.T) {
	dir := t.TempDir()
	committed := writeReport(t, dir, "old.json", []prsqResult{
		{N: 2000, Variant: "indexed-serial", MsPerQuery: 10, NodeAccesses: 500, SpeedupNaive: 10},
		{N: 20000, Variant: "indexed-serial", MsPerQuery: 100, NodeAccesses: 19000, SpeedupNaive: 60},
	})

	// A 3x slower machine (ms tripled across the board) with the same
	// within-run speedups must pass: the guard is hardware-neutral.
	ok := writeReport(t, dir, "ok.json", []prsqResult{
		{N: 2000, Variant: "indexed-serial", MsPerQuery: 30, NodeAccesses: 500, SpeedupNaive: 9},
		{N: 20000, Variant: "indexed-serial", MsPerQuery: 300, NodeAccesses: 15000, SpeedupNaive: 65},
		{N: 20000, Variant: "indexed-new", MsPerQuery: 9999, NodeAccesses: 1 << 40, SpeedupNaive: 0.01}, // unmatched: ignored
	})
	if err := PRSQCompare(ok, committed, 0.20); err != nil {
		t.Fatalf("within tolerance, got %v", err)
	}

	slow := writeReport(t, dir, "slow.json", []prsqResult{
		{N: 20000, Variant: "indexed-serial", MsPerQuery: 100, NodeAccesses: 19000, SpeedupNaive: 47},
	})
	if err := PRSQCompare(slow, committed, 0.20); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("want >20%% speedup regression failure, got %v", err)
	}

	io := writeReport(t, dir, "io.json", []prsqResult{
		{N: 20000, Variant: "indexed-serial", MsPerQuery: 100, NodeAccesses: 19001, SpeedupNaive: 60},
	})
	if err := PRSQCompare(io, committed, 0.20); err == nil || !strings.Contains(err.Error(), "I/O regression") {
		t.Fatalf("want I/O regression failure, got %v", err)
	}

	// Entries scanned: any growth against a committed count fails; a cell
	// whose committed report lacks the count (an older file, or the naive
	// loop, which runs no join) skips the check.
	counted := writeReport(t, dir, "counted.json", []prsqResult{
		{N: 2000, Variant: "naive", MsPerQuery: 100, NodeAccesses: 25000, SpeedupNaive: 1},
		{N: 2000, Variant: "indexed-serial", MsPerQuery: 10, NodeAccesses: 500, EntriesScanned: 30000, SpeedupNaive: 10},
	})
	grown := writeReport(t, dir, "grown.json", []prsqResult{
		{N: 2000, Variant: "indexed-serial", MsPerQuery: 10, NodeAccesses: 500, EntriesScanned: 30001, SpeedupNaive: 10},
	})
	if err := PRSQCompare(grown, counted, 0.20); err == nil || !strings.Contains(err.Error(), "join-work regression") {
		t.Fatalf("want entries-scanned regression failure, got %v", err)
	}
	fewer := writeReport(t, dir, "fewer.json", []prsqResult{
		{N: 2000, Variant: "naive", MsPerQuery: 100, NodeAccesses: 25000, SpeedupNaive: 1},
		{N: 2000, Variant: "indexed-serial", MsPerQuery: 10, NodeAccesses: 500, EntriesScanned: 29999, SpeedupNaive: 10},
	})
	if err := PRSQCompare(fewer, counted, 0.20); err != nil {
		t.Fatalf("fewer entries scanned, got %v", err)
	}
	if err := PRSQCompare(grown, committed, 0.20); err != nil {
		t.Fatalf("committed cell without entries scanned must skip the check, got %v", err)
	}

	disjoint := writeReport(t, dir, "disjoint.json", []prsqResult{
		{N: 4000, Variant: "other", MsPerQuery: 1, NodeAccesses: 1},
	})
	if err := PRSQCompare(disjoint, committed, 0.20); err == nil {
		t.Fatal("want failure when reports share no cells")
	}
}
