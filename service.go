package crsky

// This file holds the engine surface needed by long-lived serving layers
// (cmd/crskyd): index warm-up for safe concurrent readers. For result-cache
// keying, Options exposes the canonical Key method (via the alias to
// causality.Options).

// Warm forces the lazy R-tree index build and the derived per-object
// caches. Engines build these on first query; a server that shares one
// engine among concurrent readers must call Warm once before serving so
// that no two requests race on the build. All read-only query methods are
// safe for concurrent use after Warm returns.
func (e *Engine) Warm() {
	e.ds.Tree()
	e.ds.WeightSums()
	e.ds.Summaries()
}

// Warm is a no-op: the certain-data index is built eagerly, and verify and
// repair run in closed form over it (Lemma 7), so nothing is lazy.
func (e *CertainEngine) Warm() {}

// Warm forces the lazy R-tree index build (see Engine.Warm).
func (e *PDFEngine) Warm() { e.set.Tree() }
