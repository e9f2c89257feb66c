package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/store"
)

// This file is the dynamic data plane's HTTP surface: object inserts and
// deletes on registered datasets. A mutation flows copy-on-write through
// the engine's WithInsert/WithDelete — the successor engine shares index
// structure with its predecessor, in-flight queries keep reading the
// generation they resolved — and, with a store attached, is durable before
// it is visible: the WAL append is the commit point, and a mutation whose
// append fails is discarded, not applied.

// ObjectInsertRequest is the POST /v2/datasets/{name}/objects body.
// Exactly one payload field must be set, matching the dataset's model:
// Point (certain), Samples (sample), or PDF (pdf).
type ObjectInsertRequest struct {
	Point   []float64      `json:"point,omitempty"`
	Samples []SampleSpec   `json:"samples,omitempty"`
	PDF     *PDFObjectSpec `json:"pdf,omitempty"`
}

// MutationResponse acknowledges a committed mutation. Generation is the
// dataset generation the mutation installed — queries that want
// read-your-write semantics compare it against DatasetInfo.Generation.
// Seq is the store's WAL sequence (0 on stores-less servers).
type MutationResponse struct {
	Dataset    string `json:"dataset"`
	Model      string `json:"model"`
	Op         string `json:"op"`
	ID         int    `json:"id"`
	Size       int    `json:"size"`
	Generation uint64 `json:"generation"`
	Seq        uint64 `json:"seq,omitempty"`
}

// encodeMutationPayload renders the durable form of an insert: a 0x00 tag
// byte and the JSON of the request spec (a 2-d point takes about 50
// bytes). The live insert applies this payload, decoded, through
// applyMutation exactly as replay does, so recovery rebuilds the identical
// object; JSON also round-trips every finite float64 exactly.
func encodeMutationPayload(req *ObjectInsertRequest) ([]byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode mutation payload: %w", err)
	}
	return append([]byte{jsonPayloadTag}, data...), nil
}

// jsonPayloadTag opens a JSON insert payload. Payloads written before it
// are a gob stream of the request spec, and a gob stream never starts
// with 0x00 (its first byte is a non-zero message length), so
// decodeMutationPayload still replays them.
const jsonPayloadTag = 0x00

func decodeMutationPayload(data []byte) (*ObjectInsertRequest, error) {
	var req ObjectInsertRequest
	var err error
	if len(data) > 0 && data[0] == jsonPayloadTag {
		err = json.Unmarshal(data[1:], &req)
	} else {
		err = gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
	}
	if err != nil {
		return nil, fmt.Errorf("decode mutation payload: %w", err)
	}
	return &req, nil
}

// insertSpec validates the request payload against the dataset model and
// builds the engine-level spec with registration's sample and pdf
// converters.
func insertSpec(model string, req *ObjectInsertRequest) (crsky.InsertSpec, error) {
	var spec crsky.InsertSpec
	set := 0
	if len(req.Point) > 0 {
		set++
	}
	if len(req.Samples) > 0 {
		set++
	}
	if req.PDF != nil {
		set++
	}
	if set != 1 {
		return spec, fmt.Errorf("exactly one of point, samples, or pdf must be set")
	}
	var err error
	switch model {
	case ModelCertain:
		if len(req.Point) == 0 {
			return spec, fmt.Errorf("certain dataset insert takes a point")
		}
		spec.Point = geom.Point(req.Point)
	case ModelSample:
		if len(req.Samples) == 0 {
			return spec, fmt.Errorf("sample dataset insert takes samples")
		}
		spec.Samples = samples(req.Samples)
	case ModelPDF:
		if req.PDF == nil {
			return spec, fmt.Errorf("pdf dataset insert takes a pdf object")
		}
		if spec.PDF, err = pdfObject(0, *req.PDF); err != nil {
			return spec, fmt.Errorf("pdf object: %w", err)
		}
	default:
		return spec, fmt.Errorf("dataset model %q does not accept mutations", model)
	}
	return spec, nil
}

// objectMBR returns the bounding rectangle of one live object — the
// watch scheduler's pruning geometry. ok is false when the engine is not
// one of the three built-in types (wrapped engines) or the object does
// not exist; callers treat that as "window unknown".
func objectMBR(eng crsky.Explainer, id int) (geom.Rect, bool) {
	if id < 0 {
		return geom.Rect{}, false
	}
	switch e := eng.(type) {
	case *crsky.Engine:
		if id < e.Len() {
			if o := e.Object(id); o != nil {
				return o.MBR(), true
			}
		}
	case *crsky.CertainEngine:
		if id < e.Len() && !e.Deleted(id) {
			return geom.PointRect(e.Point(id)), true
		}
	case *crsky.PDFEngine:
		if id < e.Len() {
			if o := e.Object(id); o != nil {
				return o.Region.Clone(), true
			}
		}
	}
	return geom.Rect{}, false
}

// mutationResult is what a committed mutation hands back to the handler:
// the installed entry, the object ID, the WAL sequence, and the mutated
// object's MBR for watch-window pruning.
type mutationResult struct {
	ent    *entry
	id     int
	seq    uint64
	mbr    geom.Rect
	hasMBR bool
}

// mutate applies one object mutation under the registry's write lock. The
// handler has already encoded m, the WAL record; mutate applies it to the
// live engine through applyMutation — the function recovery replays the
// log with — stamps the ID it touched, commits the record to the WAL
// (durable before visible), then installs the copy-on-write successor
// under a fresh generation. In-flight requests keep the entry they
// resolved; the generation in every cache key retires stale results.
func (r *registry) mutate(name string, m store.Mutation) (mutationResult, int, error) {
	var res mutationResult
	r.regMu.Lock()
	defer r.regMu.Unlock()
	ent, ok := r.get(name)
	if !ok {
		return res, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name)
	}
	if m.Op == store.MutDelete {
		// Capture the MBR before the delete tombstones the object.
		res.mbr, res.hasMBR = objectMBR(ent.eng, m.ID)
	}
	ne, id, err := applyMutation(ent.eng, ent.model, m)
	if err != nil {
		return res, statusFor(err), err
	}
	m.ID = id
	if r.st != nil {
		seq, serr := r.st.AppendMutation(name, m)
		if serr != nil {
			// The successor engine is discarded: nothing was installed, so
			// memory and disk stay consistent (pre-mutation on both).
			return res, http.StatusInternalServerError,
				fmt.Errorf("durable write failed, mutation not applied: %w", serr)
		}
		res.seq = seq
	}
	nent := &entry{name: name, model: ent.model, size: ne.Len(), dims: ent.dims, eng: ne, accesses: ent.accesses}
	r.install(nent)
	res.ent, res.id = nent, id
	if m.Op == store.MutInsert {
		res.mbr, res.hasMBR = objectMBR(ne, id)
	}
	return res, 0, nil
}

// applyMutation applies one mutation record to eng and returns the
// successor engine with the object ID the mutation touched: the one apply
// function of live mutations and recovery replay, so what a live write
// installs is by construction what its WAL record replays to.
func applyMutation(eng crsky.Explainer, model string, m store.Mutation) (crsky.Explainer, int, error) {
	switch m.Op {
	case store.MutInsert:
		req, err := decodeMutationPayload(m.Data)
		if err != nil {
			return nil, 0, err
		}
		spec, err := insertSpec(model, req)
		if err != nil {
			return nil, 0, err
		}
		return eng.WithInsert(spec)
	case store.MutDelete:
		ne, err := eng.WithDelete(m.ID)
		return ne, m.ID, err
	}
	return nil, 0, fmt.Errorf("unknown mutation op %q", m.Op)
}

// applyStoredMutations replays a recovered dataset's mutation log over a
// freshly built entry — the recovery half of the durable mutation
// contract. Replay must reconverge exactly: an insert that comes back
// under a different ID than the log recorded means the base payload and
// the log disagree, and the dataset is quarantined rather than served
// with silently shifted IDs.
func applyStoredMutations(e *entry, muts []store.Mutation) error {
	for i, m := range muts {
		ne, id, err := applyMutation(e.eng, e.model, m)
		if err != nil {
			return fmt.Errorf("replay mutation %d (seq %d): %w", i, m.Seq, err)
		}
		if id != m.ID {
			return fmt.Errorf("replay divergence: mutation %d (seq %d) inserted as id %d, log says %d",
				i, m.Seq, id, m.ID)
		}
		e.eng, e.size = ne, ne.Len()
	}
	return nil
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleObjectInsert(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ObjectInsertRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	data, err := encodeMutationPayload(&req)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	res, status, err := s.reg.mutate(name, store.Mutation{Op: store.MutInsert, Data: data})
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.finishMutation(w, r, store.MutInsert, res, -1)
}

func (s *Server) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad object id %q", r.PathValue("id")))
		return
	}
	res, status, merr := s.reg.mutate(name, store.Mutation{Op: store.MutDelete, ID: id})
	if merr != nil {
		s.writeError(w, status, merr)
		return
	}
	s.finishMutation(w, r, store.MutDelete, res, id)
}

// finishMutation does the post-commit bookkeeping shared by both ops:
// metrics, the watch notification (deleted ID only for deletes), and the
// acknowledgment body.
func (s *Server) finishMutation(w http.ResponseWriter, r *http.Request, op string, res mutationResult, deletedID int) {
	ent := res.ent
	if c := s.mutations[op+"|"+ent.model]; c != nil {
		c.Inc()
	}
	annotate(r.Context(), ent)
	s.watch.Notify(ent.name, ent.gen, res.mbr, res.hasMBR, deletedID)
	writeJSON(w, http.StatusOK, MutationResponse{
		Dataset:    ent.name,
		Model:      ent.model,
		Op:         op,
		ID:         res.id,
		Size:       ent.size,
		Generation: ent.gen,
		Seq:        res.seq,
	})
}
