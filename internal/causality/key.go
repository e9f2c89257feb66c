package causality

import "fmt"

// Key returns a canonical, collision-free encoding of the options for use
// in cache keys: two Options values produce the same Key exactly when every
// tuning field matches. Serving layers combine it with the dataset, query,
// non-answer, and threshold to deduplicate identical explanation requests.
//
// EVERY Options field must appear here: a field missing from the Key makes
// crskyd silently share cache entries across variants that compute
// different work (TestOptionsKeyCoversEveryField enforces coverage by
// reflection, so adding a field without extending the Key fails the build's
// test step rather than corrupting caches at runtime).
func (o Options) Key() string {
	return fmt.Sprintf("mc=%d,ms=%d,qn=%d,par=%d,l4=%t,l5=%t,l6=%t,np=%t,ad=%t,mo=%t,rs=%t",
		o.MaxCandidates, o.MaxSubsets, o.QuadNodes, o.Parallel,
		o.NoLemma4, o.NoLemma5, o.NoLemma6, o.NoPrune,
		o.NoAdmissible, o.NoMassOrder, o.NoRepairSeed)
}
