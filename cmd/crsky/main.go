// Command crsky generates datasets, runs (probabilistic) reverse skyline
// queries, and explains non-answers from the command line.
//
// Subcommands:
//
//	crsky gen     -out data.csv [-kind lUrU|lUrG|lSrU|lSrG|ind|cor|ant|clu|nba|cardb] [-n N] [-d D] [-seed S]
//	crsky query   -data data.csv [-uncertain] -q "x,y[;x2,y2;...]" [-alpha A] [-timeout D]
//	crsky explain -data data.csv [-uncertain] -q "x,y,..." -an ID [-alpha A] [-timeout D] [-json]
//
// Certain data is one CSV row per point; uncertain data is one row per
// sample (id,prob,coords...). Query and explain dispatch through the
// model-generic crsky.Explainer interface — the only model-specific code
// is loading the CSV; multiple `;`-separated query points run as one
// amortized batch. A crskyd data directory is checked offline with
// `crskyd fsck`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "crsky: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: crsky <gen|query|explain> [flags]")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:], out)
	case "query":
		return cmdQuery(args[1:], out)
	case "explain":
		return cmdExplain(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		outPath = fs.String("out", "", "output CSV path (required)")
		kind    = fs.String("kind", "lUrU", "dataset kind: lUrU lUrG lSrU lSrG ind cor ant clu nba cardb")
		n       = fs.Int("n", 10000, "cardinality (synthetic kinds)")
		d       = fs.Int("d", 3, "dimensionality (synthetic kinds)")
		rmax    = fs.Float64("rmax", 5, "max uncertainty radius (uncertain kinds)")
		seed    = fs.Int64("seed", 1, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("gen: -out is required")
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()

	switch *kind {
	case "lUrU", "lUrG", "lSrU", "lSrG":
		cfg := dataset.UncertainConfig{N: *n, Dims: *d, RMax: *rmax, Seed: *seed}
		if strings.HasPrefix(*kind, "lS") {
			cfg.Centers = dataset.DistSkew
		}
		if strings.HasSuffix(*kind, "rG") {
			cfg.Radii = dataset.DistGaussian
		}
		ds, err := dataset.GenerateUncertain(cfg)
		if err != nil {
			return err
		}
		if err := dataset.SaveUncertainCSV(f, ds); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d uncertain objects (%s) to %s\n", ds.Len(), *kind, *outPath)
	case "ind", "cor", "ant", "clu":
		kinds := map[string]dataset.CertainKind{
			"ind": dataset.Independent, "cor": dataset.Correlated,
			"ant": dataset.AntiCorrelated, "clu": dataset.Clustered,
		}
		ds, err := dataset.GenerateCertain(dataset.CertainConfig{N: *n, Dims: *d, Kind: kinds[*kind], Seed: *seed})
		if err != nil {
			return err
		}
		if err := dataset.SaveCertainCSV(f, ds); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d certain points (%s) to %s\n", ds.Len(), *kind, *outPath)
	case "nba":
		nba := dataset.GenerateNBA(*seed)
		if err := dataset.SaveUncertainCSV(f, nba.Uncertain); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d NBA players (%d season records) to %s\n",
			nba.Len(), nba.TotalRecords(), *outPath)
	case "cardb":
		db := dataset.GenerateCarDB(*seed)
		if err := dataset.SaveCertainCSV(f, db); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d cars to %s\n", db.Len(), *outPath)
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	return nil
}

func parsePoint(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	p := make(geom.Point, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %w", part, err)
		}
		p[i] = v
	}
	return p, nil
}

// parsePoints splits a `;`-separated list of comma-separated points.
func parsePoints(s string) ([]crsky.Point, error) {
	var out []crsky.Point
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := parsePoint(part)
		if err != nil {
			return nil, err
		}
		out = append(out, crsky.Point(p))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no query points in %q", s)
	}
	return out, nil
}

// loadExplainer builds the v2 engine for a CSV dataset: the one place the
// CLI distinguishes models. Certain data pins alpha to 1 (membership is
// exact); the given alpha passes through for uncertain data.
func loadExplainer(path string, uncertain bool, alpha float64) (crsky.Explainer, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if uncertain {
		ds, err := dataset.LoadUncertainCSV(f)
		if err != nil {
			return nil, 0, err
		}
		eng, err := crsky.NewEngine(ds.Objects)
		if err != nil {
			return nil, 0, err
		}
		return eng, alpha, nil
	}
	ds, err := dataset.LoadCertainCSV(f)
	if err != nil {
		return nil, 0, err
	}
	eng, err := crsky.NewCertainEngine(ds.Points)
	if err != nil {
		return nil, 0, err
	}
	return eng, 1, nil
}

// queryContext derives the command context from -timeout (0 = none).
func queryContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	var (
		data      = fs.String("data", "", "dataset CSV path (required)")
		uncertain = fs.Bool("uncertain", false, "dataset is uncertain (id,prob,coords rows)")
		qStr      = fs.String("q", "", "query point(s): comma-separated coords, `;` between points (required)")
		alpha     = fs.Float64("alpha", 0.5, "probability threshold (uncertain data)")
		timeout   = fs.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
		limit     = fs.Int("limit", 20, "max results to print per query point")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *qStr == "" {
		return fmt.Errorf("query: -data and -q are required")
	}
	qs, err := parsePoints(*qStr)
	if err != nil {
		return err
	}
	eng, a, err := loadExplainer(*data, *uncertain, *alpha)
	if err != nil {
		return err
	}
	ctx, cancel := queryContext(*timeout)
	defer cancel()
	label := "reverse skyline"
	if *uncertain {
		label = "probabilistic reverse skyline"
	}

	// One generic path for every model and batch size: a single point is
	// a batch of one.
	batches, _, err := eng.QueryBatchStream(ctx, qs, a, crsky.QueryOptions{}, nil)
	if err != nil {
		return err
	}
	for i, answers := range batches {
		fmt.Fprintf(out, "%s of %v at α=%.2f: %d objects\n", label, qs[i], a, len(answers))
		printIDs(out, answers, *limit)
	}
	return nil
}

func cmdExplain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	var (
		data      = fs.String("data", "", "dataset CSV path (required)")
		uncertain = fs.Bool("uncertain", false, "dataset is uncertain")
		qStr      = fs.String("q", "", "query point, comma-separated (required)")
		anID      = fs.Int("an", -1, "non-answer object ID/index (required)")
		alpha     = fs.Float64("alpha", 0.5, "probability threshold (uncertain data)")
		timeout   = fs.Duration("timeout", 0, "abort the explanation after this long (0 = no deadline)")
		maxCand   = fs.Int("maxcand", 0, "abort if more candidates than this (0 = unlimited)")
		asJSON    = fs.Bool("json", false, "emit the explanation as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *qStr == "" || *anID < 0 {
		return fmt.Errorf("explain: -data, -q and -an are required")
	}
	q, err := parsePoint(*qStr)
	if err != nil {
		return err
	}
	eng, a, err := loadExplainer(*data, *uncertain, *alpha)
	if err != nil {
		return err
	}
	ctx, cancel := queryContext(*timeout)
	defer cancel()

	res, err := eng.ExplainCtx(ctx, *anID, crsky.Point(q), a, causality.Options{MaxCandidates: *maxCand})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(explainJSON{
			NonAnswer:  res.NonAnswer,
			Pr:         res.Pr,
			Alpha:      a,
			Candidates: res.Candidates,
			Causes:     res.Causes,
		})
	}
	fmt.Fprintf(out, "object %d is a non-answer (Pr=%.4f); %d candidates, %d actual causes:\n",
		res.NonAnswer, res.Pr, res.Candidates, len(res.Causes))
	for _, c := range res.Causes {
		if c.Counterfactual {
			fmt.Fprintf(out, "  object %-6d responsibility 1 (counterfactual)\n", c.ID)
		} else {
			fmt.Fprintf(out, "  object %-6d responsibility 1/%-4d Γ=%v\n",
				c.ID, int(1/c.Responsibility+0.5), c.Contingency)
		}
	}
	return nil
}

// explainJSON is the machine-readable explanation envelope for -json.
type explainJSON struct {
	NonAnswer  int               `json:"nonAnswer"`
	Pr         float64           `json:"pr"`
	Alpha      float64           `json:"alpha"`
	Candidates int               `json:"candidates"`
	Causes     []causality.Cause `json:"causes"`
}

func printIDs(out io.Writer, ids []int, limit int) {
	sort.Ints(ids)
	for i, id := range ids {
		if i >= limit {
			fmt.Fprintf(out, "  ... and %d more\n", len(ids)-limit)
			return
		}
		fmt.Fprintf(out, "  %d\n", id)
	}
}
