package main

import (
	crsky "github.com/crsky/crsky"
)

// The HTTP bodies the benchmark sends and reads, declared here from the
// documented wire format so the benchmark depends on crskyd's JSON, not
// on its Go types.

type wireSample struct {
	P   float64   `json:"p"`
	Loc []float64 `json:"loc"`
}

type wireObject struct {
	Samples []wireSample `json:"samples"`
}

type wirePDF struct {
	Kind string    `json:"kind"`
	Min  []float64 `json:"min"`
	Max  []float64 `json:"max"`
}

type wireDataset struct {
	Name       string       `json:"name"`
	Model      string       `json:"model"`
	Points     [][]float64  `json:"points,omitempty"`
	Objects    []wireObject `json:"objects,omitempty"`
	PDFObjects []wirePDF    `json:"pdfObjects,omitempty"`
}

func sampleDataset(name string, objs []*crsky.Object) wireDataset {
	ds := wireDataset{Name: name, Model: "sample", Objects: make([]wireObject, len(objs))}
	for i, o := range objs {
		ss := make([]wireSample, len(o.Samples))
		for j, s := range o.Samples {
			ss[j] = wireSample{P: s.P, Loc: s.Loc}
		}
		ds.Objects[i] = wireObject{Samples: ss}
	}
	return ds
}

func pdfDataset(name string, objs []*crsky.PDFObject) wireDataset {
	ds := wireDataset{Name: name, Model: "pdf", PDFObjects: make([]wirePDF, len(objs))}
	for i, o := range objs {
		ds.PDFObjects[i] = wirePDF{Kind: "uniform", Min: o.Region.Min, Max: o.Region.Max}
	}
	return ds
}

func certainDataset(name string, pts []crsky.Point) wireDataset {
	ds := wireDataset{Name: name, Model: "certain", Points: make([][]float64, len(pts))}
	for i, p := range pts {
		ds.Points[i] = p
	}
	return ds
}

type wireQuery struct {
	Dataset string    `json:"dataset"`
	Q       []float64 `json:"q"`
	Alpha   float64   `json:"alpha,omitempty"`
}

type wireQueryResp struct {
	Count      int        `json:"count"`
	Answers    []int      `json:"answers"`
	Generation uint64     `json:"generation"`
	Approx     bool       `json:"approx"`
	Trace      *traceJSON `json:"trace"`
}

type wireExplainItem struct {
	Q  []float64 `json:"q"`
	An int       `json:"an"`
}

type wireOptions struct {
	MaxCandidates int `json:"maxCandidates,omitempty"`
}

type wireExplainBatch struct {
	Dataset string            `json:"dataset"`
	Items   []wireExplainItem `json:"items"`
	Alpha   float64           `json:"alpha,omitempty"`
	Options wireOptions       `json:"options,omitempty"`
	NoCache bool              `json:"noCache,omitempty"`
}

type wireCause struct {
	ID             int     `json:"id"`
	Responsibility float64 `json:"responsibility"`
}

type wireExplanation struct {
	NonAnswer  int         `json:"nonAnswer"`
	Candidates int         `json:"candidates"`
	Causes     []wireCause `json:"causes"`
}

// wireExplainLine is one NDJSON line of /v2/explain: an item or, last on
// traced requests, the batch trace.
type wireExplainLine struct {
	Index   *int             `json:"index"`
	Explain *wireExplanation `json:"explain"`
	Error   string           `json:"error"`
	Trace   *traceJSON       `json:"trace"`
}

type wireInsert struct {
	Point []float64 `json:"point"`
}

type wireMutation struct {
	ID         int    `json:"id"`
	Generation uint64 `json:"generation"`
}

type wireWatch struct {
	Dataset string    `json:"dataset"`
	Q       []float64 `json:"q"`
	An      int       `json:"an"`
}

type wireWatchEvent struct {
	Event      string `json:"event"`
	Generation uint64 `json:"generation"`
	An         int    `json:"an"`
	Answer     bool   `json:"answer"`
}
