package server

import "github.com/crsky/crsky/internal/geom"

// The /v2 API is the batch, deadline-aware surface over the model-generic
// engine interface: one request carries many query points (or many
// non-answers), responses stream back as NDJSON — one JSON object per
// line, flushed as soon as that item is final, not when the batch is — and
// a `?timeout=` query parameter bounds the whole request. The compute runs
// on the live request context: a client disconnect or an elapsed deadline
// cancels the engine work mid-search and frees the worker-pool slot. A /v1
// request is a batch of one over the same compute path (compute.go).
//
// Results are cached per ITEM, under the keys /v1 uses too (queryKey /
// explainKey): a batch warms the cache for later single queries, a warmed
// single query is one less item a later batch computes, and a repeated
// batch recomputes only the items it is missing.

// BatchQueryRequest is the body of POST /v2/query: the (probabilistic)
// reverse skyline of every point in Qs at one threshold. Alpha is ignored
// (forced to 1) for certain data; QuadNodes tunes pdf quadrature.
type BatchQueryRequest struct {
	Dataset   string      `json:"dataset"`
	Qs        [][]float64 `json:"qs"`
	Alpha     float64     `json:"alpha,omitempty"`
	QuadNodes int         `json:"quadNodes,omitempty"`
	NoCache   bool        `json:"noCache,omitempty"`
}

// itemKeys returns one cache key per query point, in request order — the
// SAME keys the v1 single-query handler uses (see queryKey), which is
// what lets batch and single-query results share cache entries. Every
// semantically relevant field feeds the keys; NoCache is the cache
// directive itself. TestV2CacheKeysCoverEveryField enforces the coverage
// by reflection.
func (r *BatchQueryRequest) itemKeys(ent *entry) []string {
	// r.Dataset (== ent.name for every resolvable request) keys the name;
	// the entry contributes the generation so a re-registered dataset
	// retires its predecessor's cached items.
	keys := make([]string, len(r.Qs))
	for i, q := range r.Qs {
		keys[i] = queryKey(r.Dataset, ent.gen, geom.Point(q), r.Alpha, r.QuadNodes)
	}
	return keys
}

// BatchQueryItem is one NDJSON line of the /v2/query response, in request
// order. Error is set only on the lines after a mid-stream engine failure:
// earlier items are already on the wire with a committed 200 by then, so
// each item the engine never finished carries the failure explicitly
// instead of being silently truncated.
type BatchQueryItem struct {
	Index   int    `json:"index"`
	Count   int    `json:"count"`
	Answers []int  `json:"answers"`
	Error   string `json:"error,omitempty"`
}

// BatchExplainItemRequest is one non-answer to explain.
type BatchExplainItemRequest struct {
	Q  []float64 `json:"q"`
	An int       `json:"an"`
}

// BatchExplainRequest is the body of POST /v2/explain: causality
// explanations for many non-answers, with per-item errors (an item that is
// actually an answer fails alone, its siblings still return). Verify
// re-checks every reported explanation — computed or cached — against
// Definition 1 before it is streamed.
type BatchExplainRequest struct {
	Dataset string                    `json:"dataset"`
	Items   []BatchExplainItemRequest `json:"items"`
	Alpha   float64                   `json:"alpha,omitempty"`
	Options OptionsSpec               `json:"options,omitempty"`
	Verify  bool                      `json:"verify,omitempty"`
	NoCache bool                      `json:"noCache,omitempty"`
	// ItemTimeout bounds each item's computation separately (a Go duration
	// string, e.g. "250ms"): an item that exceeds its own budget fails
	// alone with a per-item error line and the batch goes on to the next
	// item, unlike ?timeout=, which bounds — and on expiry fails — the
	// whole request. Empty means no per-item bound.
	ItemTimeout string `json:"itemTimeout,omitempty"`
}

// itemKeys mirrors BatchQueryRequest.itemKeys for /v2/explain: one
// v1-compatible key per item (see explainKey). Verify is not keyed —
// cached results are re-verified per request — and ItemTimeout is
// delivery, not semantics; NoCache is the cache directive itself.
func (r *BatchExplainRequest) itemKeys(ent *entry) []string {
	opts := r.Options.toOptions()
	keys := make([]string, len(r.Items))
	for i, it := range r.Items {
		keys[i] = explainKey(r.Dataset, ent.gen, geom.Point(it.Q), it.An, r.Alpha, opts)
	}
	return keys
}

// BatchExplainItem is one NDJSON line of the /v2/explain response, in
// request order: either an explanation or a per-item error.
type BatchExplainItem struct {
	Index   int              `json:"index"`
	Explain *ExplainResponse `json:"explain,omitempty"`
	Error   string           `json:"error,omitempty"`
}
