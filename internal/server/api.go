package server

import (
	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/store"
	"github.com/crsky/crsky/internal/uncertain"
	"github.com/crsky/crsky/internal/watch"
)

// Data models served by the registry. "uncertain" is accepted as an alias
// for "sample" on upload.
const (
	ModelCertain = "certain" // plain points, reverse skyline semantics
	ModelSample  = "sample"  // discrete-sample uncertain objects
	ModelPDF     = "pdf"     // continuous uniform/Gaussian pdf objects
)

// SampleSpec is one possible location of an uncertain object with its
// appearance probability.
type SampleSpec struct {
	P   float64   `json:"p"`
	Loc []float64 `json:"loc"`
}

// ObjectSpec is a discrete-sample uncertain object. Object IDs are
// positional: the i-th spec becomes object i.
type ObjectSpec struct {
	Samples []SampleSpec `json:"samples"`
}

// PDFObjectSpec is a continuous-model uncertain object. Kind is "uniform"
// or "gaussian"; Mean and Sigma are optional for gaussian (defaults:
// region center, quarter side).
type PDFObjectSpec struct {
	Kind  string    `json:"kind"`
	Min   []float64 `json:"min"`
	Max   []float64 `json:"max"`
	Mean  []float64 `json:"mean,omitempty"`
	Sigma []float64 `json:"sigma,omitempty"`
}

// DatasetRequest registers (or replaces) a named dataset. Exactly one of
// CSV, Points, Objects, or PDFObjects must be set, matching Model:
//
//   - certain: Points, or CSV in the crsky certain format (one row per
//     point);
//   - sample: Objects, or CSV in the crsky uncertain format (one row per
//     sample: id,prob,coords...);
//   - pdf: PDFObjects.
type DatasetRequest struct {
	Name       string          `json:"name"`
	Model      string          `json:"model"`
	CSV        string          `json:"csv,omitempty"`
	Points     [][]float64     `json:"points,omitempty"`
	Objects    []ObjectSpec    `json:"objects,omitempty"`
	PDFObjects []PDFObjectSpec `json:"pdfObjects,omitempty"`
}

// DatasetInfo describes a registered dataset.
type DatasetInfo struct {
	Name       string `json:"name"`
	Model      string `json:"model"`
	Size       int    `json:"size"`
	Dims       int    `json:"dims"`
	Generation uint64 `json:"generation"`
	// NodeAccesses is the dataset's simulated I/O since registration —
	// the paper's primary cost metric, surfaced per dataset: the sum of
	// the per-call counts that the server's queries, explanations and
	// repairs on it returned, watch re-evaluations included, over every
	// generation. A call still running when a mutation commits adds to it
	// when it finishes.
	NodeAccesses int64 `json:"nodeAccesses"`
}

// OptionsSpec tunes the refinement stage of explain/repair requests with
// three fields, maxCandidates, maxSubsets and quadNodes; the zero value
// selects the library defaults. The research ablation switches of
// causality.Options (NoAdmissible, NoMassOrder, NoRepairSeed and the lemma
// switches) are not part of the wire API: they belong to the experiments
// harness. Nor is a worker count: one explanation's search is serial, and
// a /v2/explain batch spreads its items over the cores. Unknown fields are
// ignored, so requests that still send those switches or "parallel" decode
// as if they were unset.
//
// MaxSubsets counts refinement evaluation units — leaf verifications,
// pruned branch points, and the minimum-repair seed's evaluations and
// enumeration nodes — so it bounds the whole refinement's latency. Before the
// branch-and-bound rework only leaf verifications were charged; budgets
// calibrated against the old counting trip earlier now and may need
// raising by a small factor.
type OptionsSpec struct {
	MaxCandidates int   `json:"maxCandidates,omitempty"`
	MaxSubsets    int64 `json:"maxSubsets,omitempty"`
	QuadNodes     int   `json:"quadNodes,omitempty"`
}

func (o OptionsSpec) toOptions() causality.Options {
	return causality.Options{
		MaxCandidates: o.MaxCandidates,
		MaxSubsets:    o.MaxSubsets,
		QuadNodes:     o.QuadNodes,
	}
}

// QueryRequest computes the (probabilistic) reverse skyline of Q. Alpha is
// the probability threshold for the sample and pdf models and is ignored
// for certain data. QuadNodes tunes pdf quadrature (0 = default).
type QueryRequest struct {
	Dataset   string    `json:"dataset"`
	Q         []float64 `json:"q"`
	Alpha     float64   `json:"alpha,omitempty"`
	QuadNodes int       `json:"quadNodes,omitempty"`
	NoCache   bool      `json:"noCache,omitempty"`
	// Approx selects the degraded Monte Carlo tier: "" or "never" is exact
	// only; "auto" falls back to the approximate tier when admission sheds
	// the request or the exact attempt times out; "always" skips the exact
	// tier entirely. Approximate responses carry approx: true with
	// per-object confidence intervals and are never cached.
	Approx string `json:"approx,omitempty"`
	// Epsilon and Confidence set the approximate tier's error budget
	// (defaults 0.05 at 0.95); ignored when the exact tier answers.
	Epsilon    float64 `json:"epsilon,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// QueryResponse lists the answer object IDs in ascending order. Trace is
// present only on ?trace=1 requests: the stage spans and effort counters
// of this request (cache hits show the disposition labels and no engine
// spans — the engine never ran).
type QueryResponse struct {
	Dataset string  `json:"dataset"`
	Model   string  `json:"model"`
	Alpha   float64 `json:"alpha"`
	Count   int     `json:"count"`
	Answers []int   `json:"answers"`
	// Generation is the dataset generation this answer was computed (or
	// cached) against. Under concurrent mutations the answer is exactly the
	// committed state of that generation — never a blend of two.
	Generation uint64 `json:"generation,omitempty"`
	// Approx marks a degraded-tier answer: membership was estimated by
	// Monte Carlo for the interval-carrying objects below (everything else
	// was still decided exactly by the filter bounds).
	Approx bool `json:"approx,omitempty"`
	// Intervals are the Hoeffding confidence intervals of the estimated
	// objects (ascending ID); at confidence level Confidence each interval
	// contains the true probability.
	Intervals  []crsky.ApproxInterval `json:"intervals,omitempty"`
	Epsilon    float64                `json:"epsilon,omitempty"`
	Confidence float64                `json:"confidence,omitempty"`
	// Iters is the per-object Monte Carlo iteration count used.
	Iters int            `json:"iters,omitempty"`
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// ExplainRequest asks why object An is NOT in the (probabilistic) reverse
// skyline of Q at threshold Alpha. Verify re-checks the explanation against
// Definition 1 before responding (sample and certain models only). NoCache
// bypasses the result cache for this request.
type ExplainRequest struct {
	Dataset string      `json:"dataset"`
	Q       []float64   `json:"q"`
	An      int         `json:"an"`
	Alpha   float64     `json:"alpha,omitempty"`
	Options OptionsSpec `json:"options,omitempty"`
	Verify  bool        `json:"verify,omitempty"`
	NoCache bool        `json:"noCache,omitempty"`
}

// CauseJSON is one actual cause with its responsibility and a minimum
// contingency set.
type CauseJSON struct {
	ID             int     `json:"id"`
	Responsibility float64 `json:"responsibility"`
	Contingency    []int   `json:"contingency,omitempty"`
	Counterfactual bool    `json:"counterfactual,omitempty"`
}

// ExplainResponse is the causality-and-responsibility explanation for one
// non-answer.
type ExplainResponse struct {
	Dataset         string      `json:"dataset"`
	Model           string      `json:"model"`
	NonAnswer       int         `json:"nonAnswer"`
	Pr              float64     `json:"pr"`
	Alpha           float64     `json:"alpha"`
	Candidates      int         `json:"candidates"`
	Causes          []CauseJSON `json:"causes"`
	SubsetsExamined int64       `json:"subsetsExamined,omitempty"`
	// FilterNodeAccesses is the simulated I/O of this explanation's
	// candidate-retrieval traversal.
	FilterNodeAccesses int64 `json:"filterNodeAccesses,omitempty"`
	Verified           bool  `json:"verified,omitempty"`
	// Trace is present only on ?trace=1 requests.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func causesJSON(cs []causality.Cause) []CauseJSON {
	out := make([]CauseJSON, len(cs))
	for i, c := range cs {
		out[i] = CauseJSON{
			ID:             c.ID,
			Responsibility: c.Responsibility,
			Contingency:    c.Contingency,
			Counterfactual: c.Counterfactual,
		}
	}
	return out
}

// RepairRequest asks for a smallest set of objects whose removal turns
// non-answer An into an answer.
type RepairRequest struct {
	Dataset string      `json:"dataset"`
	Q       []float64   `json:"q"`
	An      int         `json:"an"`
	Alpha   float64     `json:"alpha,omitempty"`
	Options OptionsSpec `json:"options,omitempty"`
	NoCache bool        `json:"noCache,omitempty"`
}

// RepairResponse is the minimal intervention: deleting Removed raises
// Pr(an) to NewPr ≥ α. Exact=false marks the greedy fallback.
type RepairResponse struct {
	Dataset string  `json:"dataset"`
	Model   string  `json:"model"`
	An      int     `json:"an"`
	Alpha   float64 `json:"alpha"`
	Removed []int   `json:"removed"`
	NewPr   float64 `json:"newPr"`
	Exact   bool    `json:"exact"`
	// Trace is present only on ?trace=1 requests.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// BatchTraceItem is the final NDJSON line of a ?trace=1 batch response:
// the whole batch shares one engine call, so the stage trace is
// request-level, not per-item.
type BatchTraceItem struct {
	Trace *obs.TraceJSON `json:"trace"`
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	Capacity  int     `json:"capacity"`
	Size      int     `json:"size"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hitRate"`
}

// PoolStats reports worker-pool load and saturation: QueueDepth is the
// number of requests currently waiting for a slot, and the wait
// percentiles summarize how long admission has been taking.
type PoolStats struct {
	Workers        int     `json:"workers"`
	InFlight       int64   `json:"inFlight"`
	PeakInFlight   int64   `json:"peakInFlight"`
	QueueDepth     int64   `json:"queueDepth"`
	PeakQueueDepth int64   `json:"peakQueueDepth"`
	Completed      int64   `json:"completed"`
	Canceled       int64   `json:"canceled"`
	WaitP50Ms      float64 `json:"waitP50Ms"`
	WaitP99Ms      float64 `json:"waitP99Ms"`
}

// QuadratureStats reports the process-wide pdf cubature memo: how often
// repeated queries reused a derived quadrature rule instead of re-deriving
// it, and how close the memo sits to its node-count eviction cap.
type QuadratureStats struct {
	uncertain.QuadMemoStats
	HitRate float64 `json:"hitRate"`
}

// RequestStats counts requests per compute endpoint since start. Approx
// counts degraded-tier answers served; Panics counts handler panics the
// recovery middleware converted to 500s.
type RequestStats struct {
	Query   int64 `json:"query"`
	Explain int64 `json:"explain"`
	Repair  int64 `json:"repair"`
	Errors  int64 `json:"errors"`
	Approx  int64 `json:"approx"`
	Panics  int64 `json:"panics"`
	// UploadRejected counts request bodies refused with 413 for exceeding
	// the configured size cap.
	UploadRejected int64 `json:"uploadRejected"`
}

// AdmissionStats reports the admission controller: the queue budget, the
// current estimated queue wait for a new arrival, shed counts per priority
// class, and whether the server is draining.
type AdmissionStats struct {
	MaxQueue    int     `json:"maxQueue"`
	EstWaitMs   float64 `json:"estWaitMs"`
	ShedBatch   int64   `json:"shedBatch"`
	ShedExplain int64   `json:"shedExplain"`
	ShedQuery   int64   `json:"shedQuery"`
	Draining    bool    `json:"draining"`
}

// ExplainStats aggregates refinement work across every computed (non-cached)
// explanation since start: subset verifications and candidate-retrieval
// node accesses.
type ExplainStats struct {
	SubsetsExamined      int64 `json:"subsetsExamined"`
	FilterNodeAccesses   int64 `json:"filterNodeAccesses"`
	ComputedExplanations int64 `json:"computedExplanations"`
}

// StatsResponse is the /v1/stats payload. Store is present only when the
// server runs with a durable store.
type StatsResponse struct {
	UptimeSeconds float64         `json:"uptimeSeconds"`
	Datasets      []DatasetInfo   `json:"datasets"`
	Cache         CacheStats      `json:"cache"`
	Pool          PoolStats       `json:"pool"`
	ApproxPool    PoolStats       `json:"approxPool"`
	Admission     AdmissionStats  `json:"admission"`
	Quadrature    QuadratureStats `json:"quadrature"`
	Explain       ExplainStats    `json:"explain"`
	Requests      RequestStats    `json:"requests"`
	Watch         watch.Stats     `json:"watch"`
	Store         *store.Stats    `json:"store,omitempty"`
}

// StoreHealth is the durability block of /healthz. CorruptTotal > 0 flips
// the overall status to "degraded": the files listed were quarantined and
// the datasets they held are not being served until an operator repairs
// the store (crskyd fsck -repair) or re-registers the data.
type StoreHealth struct {
	CorruptTotal int64    `json:"corruptTotal"`
	Quarantined  []string `json:"quarantined,omitempty"`
}

// HealthResponse is the /healthz payload. Status is "ok", or "degraded"
// when the store quarantined corrupt files (the surviving datasets keep
// serving). Store is present only when durability is enabled.
type HealthResponse struct {
	Status        string       `json:"status"`
	UptimeSeconds float64      `json:"uptimeSeconds"`
	Datasets      int          `json:"datasets"`
	Store         *StoreHealth `json:"store,omitempty"`
}

// ErrorResponse is the uniform error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
