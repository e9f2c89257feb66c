package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prsq"
	"github.com/crsky/crsky/internal/skyline"
	"github.com/crsky/crsky/internal/stats"
)

// PRSQBatch measures the v2 batch query layer on the committed PRSQ
// configuration (lUrU, d=3, α=0.5, n=20k at -scale 1): 64 query points
// answered by one shared left-descent join against the same points run as
// 64 batches of one, plus the certain-model cell — the same 64 points
// through one BBRS batch (per-query traversals charging a shared node
// once) against 64 one-point calls.
// It FAILS — non-zero exit under cmd/experiments — unless each batch
// performs strictly fewer total node accesses with element-wise identical
// answer sets, which is exactly the acceptance contract of the batch API.
func PRSQBatch(cfg Config) error {
	cfg.fillDefaults()
	const (
		alpha   = 0.5
		dims    = 3
		family  = "lUrU"
		queries = 64
	)
	n := cfg.scaled(20_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds, err := uncertainFamily(family, n, dims, 0, 5, cfg.Seed)
	if err != nil {
		return err
	}
	ds.WeightSums()
	ds.Summaries()

	qs := make([]geom.Point, queries)
	for i := range qs {
		qs[i] = domainQuery(rng, dims, 10000)
	}
	opt := prsq.Options{}

	start := time.Now()
	single := make([][]int, queries)
	var singleIO int64
	for i, q := range qs {
		var st prsq.Stats
		single[i], st = indexedPRSQ(ds, q, alpha, opt)
		singleIO += st.NodeAccesses
	}
	singleMs := ms(time.Since(start))

	start = time.Now()
	batch, bst, err := prsq.QueryBatchStreamStatsCtx(context.Background(), ds, qs, alpha, opt, nil)
	if err != nil {
		return err
	}
	batchMs := ms(time.Since(start))
	batchIO := bst.NodeAccesses

	for i := range qs {
		if len(batch[i]) != len(single[i]) {
			return fmt.Errorf("experiments: batch query #%d returned %d answers, per-query run %d",
				i, len(batch[i]), len(single[i]))
		}
		for j := range batch[i] {
			if batch[i][j] != single[i][j] {
				return fmt.Errorf("experiments: batch query #%d diverges from the per-query run at answer %d", i, j)
			}
		}
	}

	tab := stats.Table{
		Title:  fmt.Sprintf("PRSQ batch: %d queries, n=%d, α=%g", queries, n, alpha),
		Header: []string{"variant", "total ms", "total node accesses", "IO vs per-query"},
		Caption: "One shared left-descent join for the whole batch; answer sets element-wise " +
			"identical to batches of one by construction (and checked here).",
	}
	tab.AddRow("per-query x64", fmt.Sprintf("%.1f", singleMs), fmt.Sprintf("%d", singleIO), "1.00x")
	ratio := float64(singleIO) / float64(batchIO)
	tab.AddRow("batch", fmt.Sprintf("%.1f", batchMs), fmt.Sprintf("%d", batchIO), fmt.Sprintf("%.2fx fewer", ratio))
	tab.Render(cfg.Out)
	fmt.Fprintf(cfg.Out, "batch evaluated %d object-decisions, %d exact evaluations\n", bst.Objects, bst.Evaluated)

	if batchIO >= singleIO {
		return fmt.Errorf("experiments: batch query charged %d node accesses, not strictly below the per-query total %d",
			batchIO, singleIO)
	}

	// Certain-model cell: the BBRS batch under the same contract. Each of
	// the 64 queries runs its own traversal, and the batch charges an
	// R-tree node once however many of them read it; the answers must stay
	// element-wise identical to the one-point calls.
	cds, err := dataset.GenerateCertain(dataset.CertainConfig{
		N: n, Dims: dims, Kind: dataset.Clustered, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return err
	}
	ix := skyline.NewIndex(cds.Points)

	start = time.Now()
	csingle := make([][]int, queries)
	var csingleIO int64
	for i, q := range qs {
		out, st, _ := ix.ReverseSkylineBBRSBatch(context.Background(), []geom.Point{q}, nil)
		csingle[i] = out[0]
		csingleIO += st.NodeAccesses
	}
	csingleMs := ms(time.Since(start))

	start = time.Now()
	cbatch, cbst, _ := ix.ReverseSkylineBBRSBatch(context.Background(), qs, nil)
	cbatchIO := cbst.NodeAccesses
	cbatchMs := ms(time.Since(start))

	for i := range qs {
		if len(cbatch[i]) != len(csingle[i]) {
			return fmt.Errorf("experiments: certain batch query #%d returned %d answers, per-query BBRS %d",
				i, len(cbatch[i]), len(csingle[i]))
		}
		for j := range cbatch[i] {
			if cbatch[i][j] != csingle[i][j] {
				return fmt.Errorf("experiments: certain batch query #%d diverges from per-query BBRS at answer %d", i, j)
			}
		}
	}

	ctab := stats.Table{
		Title:  fmt.Sprintf("BBRS batch (certain): %d queries, n=%d", queries, n),
		Header: []string{"variant", "total ms", "total node accesses", "IO vs per-query"},
		Caption: "Per-query best-first traversals over reused scratch, each R-tree node " +
			"charged once per batch; reverse skylines element-wise identical to per-query BBRS (checked here).",
	}
	ctab.AddRow(fmt.Sprintf("per-query x%d", queries),
		fmt.Sprintf("%.1f", csingleMs), fmt.Sprintf("%d", csingleIO), "1.00x")
	cratio := float64(csingleIO) / float64(cbatchIO)
	ctab.AddRow("batch", fmt.Sprintf("%.1f", cbatchMs), fmt.Sprintf("%d", cbatchIO),
		fmt.Sprintf("%.2fx fewer", cratio))
	ctab.Render(cfg.Out)

	if cbatchIO >= csingleIO {
		return fmt.Errorf("experiments: certain batch charged %d node accesses, not strictly below the per-query BBRS total %d",
			cbatchIO, csingleIO)
	}
	return nil
}
