package experiments

import (
	"encoding/json"
	"fmt"
	"os"
)

// PRSQCompare guards the PRSQ performance trajectory: it loads two bench
// reports (typically a fresh run and the committed BENCH_prsq.json) and
// fails when any (n, variant) cell present in both regressed by more than
// tolerance. Absolute ms/query is NOT compared — the committed file and
// the checking machine routinely differ by integer factors of hardware
// speed. Instead the guard uses the hardware-neutral signals:
//
//   - speedupVsNaive, a ratio of CPU times measured within one run (naive
//     and indexed take interleaved turns on the same machine), must not
//     shrink by more than tolerance (0.20 = fail below 80% of the
//     committed speedup);
//   - node accesses and entries scanned are checked exactly, because the
//     join's simulated I/O and rectangle tests are deterministic and any
//     growth is a real algorithmic regression, not noise. A cell whose
//     committed report lacks entries scanned skips that check.
//
// Cells present in only one report are ignored, so adding a variant never
// breaks the guard.
func PRSQCompare(nextPath, prevPath string, tolerance float64) error {
	next, err := loadPRSQReport(nextPath)
	if err != nil {
		return err
	}
	prev, err := loadPRSQReport(prevPath)
	if err != nil {
		return err
	}
	type key struct {
		n       int
		variant string
	}
	prevCells := make(map[key]prsqResult, len(prev.Results))
	for _, r := range prev.Results {
		prevCells[key{r.N, r.Variant}] = r
	}
	var compared int
	for _, r := range next.Results {
		p, ok := prevCells[key{r.N, r.Variant}]
		if !ok {
			continue
		}
		compared++
		if r.SpeedupNaive < p.SpeedupNaive*(1-tolerance) {
			return fmt.Errorf("experiments: prsq regression at n=%d variant=%s: %.1fx speedup vs naive, committed %.1fx (<%.0f%%)",
				r.N, r.Variant, r.SpeedupNaive, p.SpeedupNaive, (1-tolerance)*100)
		}
		if r.NodeAccesses > p.NodeAccesses {
			return fmt.Errorf("experiments: prsq I/O regression at n=%d variant=%s: %d node accesses vs %d committed",
				r.N, r.Variant, r.NodeAccesses, p.NodeAccesses)
		}
		if p.EntriesScanned > 0 && r.EntriesScanned > p.EntriesScanned {
			return fmt.Errorf("experiments: prsq join-work regression at n=%d variant=%s: %d entries scanned vs %d committed",
				r.N, r.Variant, r.EntriesScanned, p.EntriesScanned)
		}
	}
	if compared == 0 {
		return fmt.Errorf("experiments: %s and %s share no (n, variant) cells", nextPath, prevPath)
	}
	return nil
}

func loadPRSQReport(path string) (*prsqReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var rep prsqReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if rep.Experiment != "prsq" {
		return nil, fmt.Errorf("experiments: %s is a %q report, want prsq", path, rep.Experiment)
	}
	return &rep, nil
}
