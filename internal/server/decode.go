package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"strings"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// This file is the serving layer's one per-model decoder. A dataset is
// decoded once — from a registration request or from the payload the
// store recovered — into engine input, which both builds the engine and
// renders the durable payload. The payload is the canonical engine input,
// not the request: CSV uploads are parsed once and stored in the
// checksummed gob forms of internal/dataset (certain and sample models) or
// as a gob of the pdf specs, so decoding a payload and rebuilding the
// engine reproduces the original registration bit for bit — the
// recovery-conformance tests depend on that.

// engineInput is one decoded, validated dataset.
type engineInput struct {
	model string
	// build constructs the dataset's engine.
	build func() (crsky.Explainer, error)
	// save writes the payload the store keeps for the dataset.
	save func(w io.Writer) error
}

// decodeDataset decodes one dataset of the given model: the registration
// request req, or, when req is nil, the recovered store payload stored.
// A stored payload already passed the store's checksums, so a failure
// there means it is semantically bad (wrong model tag, undecodable gob)
// and the caller should quarantine it.
func decodeDataset(model string, req *DatasetRequest, stored []byte) (*engineInput, error) {
	if model == "uncertain" {
		model = ModelSample
	}
	var err error
	switch model {
	case ModelCertain:
		var ds *dataset.Certain
		switch {
		case req == nil:
			ds, err = dataset.LoadCertainGob(bytes.NewReader(stored))
		case req.CSV != "":
			ds, err = dataset.LoadCertainCSV(strings.NewReader(req.CSV))
		case len(req.Points) == 0:
			err = fmt.Errorf("certain dataset needs points or csv")
		default:
			pts := make([]geom.Point, len(req.Points))
			for i, p := range req.Points {
				pts[i] = p
			}
			ds, err = dataset.NewCertain(pts)
		}
		if err != nil {
			return nil, err
		}
		return &engineInput{
			model: model,
			build: func() (crsky.Explainer, error) { return crsky.NewCertainEngine(ds.Points) },
			save:  func(w io.Writer) error { return dataset.SaveCertainGob(w, ds) },
		}, nil

	case ModelSample:
		var ds *dataset.Uncertain
		switch {
		case req == nil:
			ds, err = dataset.LoadUncertainGob(bytes.NewReader(stored))
		case req.CSV != "":
			ds, err = dataset.LoadUncertainCSV(strings.NewReader(req.CSV))
		case len(req.Objects) == 0:
			err = fmt.Errorf("sample dataset needs objects or csv")
		default:
			objs := make([]*uncertain.Object, len(req.Objects))
			for i, spec := range req.Objects {
				objs[i] = uncertain.New(i, samples(spec.Samples))
			}
			ds, err = dataset.NewUncertain(objs)
		}
		if err != nil {
			return nil, err
		}
		return &engineInput{
			model: model,
			build: func() (crsky.Explainer, error) { return crsky.NewEngine(ds.Objects) },
			save:  func(w io.Writer) error { return dataset.SaveUncertainGob(w, ds) },
		}, nil

	case ModelPDF:
		var specs []PDFObjectSpec
		switch {
		case req == nil:
			if err := gob.NewDecoder(bytes.NewReader(stored)).Decode(&specs); err != nil {
				return nil, fmt.Errorf("decode pdf specs: %w", err)
			}
		case req.CSV != "":
			return nil, fmt.Errorf("pdf datasets have no csv format; use pdfObjects")
		default:
			specs = req.PDFObjects
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("pdf dataset needs pdfObjects")
		}
		objs := make([]*uncertain.PDFObject, len(specs))
		for i, spec := range specs {
			if objs[i], err = pdfObject(i, spec); err != nil {
				return nil, fmt.Errorf("pdf object %d: %w", i, err)
			}
		}
		return &engineInput{
			model: model,
			build: func() (crsky.Explainer, error) { return crsky.NewPDFEngine(objs) },
			save: func(w io.Writer) error {
				if err := gob.NewEncoder(w).Encode(specs); err != nil {
					return fmt.Errorf("encode pdf specs: %w", err)
				}
				return nil
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown model %q (want certain, sample, or pdf)", model)
}

// samples converts wire samples to engine samples; registration and
// object inserts share it.
func samples(specs []SampleSpec) []crsky.Sample {
	out := make([]crsky.Sample, len(specs))
	for i, s := range specs {
		out[i] = crsky.Sample{P: s.P, Loc: geom.Point(s.Loc)}
	}
	return out
}

// pdfObject converts a wire pdf spec to the engine object with the given
// ID; registration and object inserts share it.
func pdfObject(id int, spec PDFObjectSpec) (*uncertain.PDFObject, error) {
	if len(spec.Min) == 0 || len(spec.Min) != len(spec.Max) {
		return nil, fmt.Errorf("min/max must be equal-length and non-empty")
	}
	region := geom.NewRect(geom.Point(spec.Min), geom.Point(spec.Max))
	switch spec.Kind {
	case "uniform", "":
		return crsky.NewUniformPDFObject(id, region), nil
	case "gaussian":
		return crsky.NewGaussianPDFObject(id, region, geom.Point(spec.Mean), geom.Point(spec.Sigma)), nil
	}
	return nil, fmt.Errorf("unknown kind %q (want uniform or gaussian)", spec.Kind)
}
