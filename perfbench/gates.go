package main

import "fmt"

// gateWant is what the client sent during a phase, in the server's units.
type gateWant struct {
	computed  int64 // pool completions: requests the server had to compute
	cacheHits int64 // requests the result cache answered
	mutations int64 // committed inserts and deletes
	flips     int64 // watch "flipped" events caused
}

// commonGates reconciles the server-side deltas between two scrapes with
// what the clients sent. Any violation fails the run: it means the
// benchmark measured different work than it meant to.
func commonGates(p *phase, before, after scrape, want gateWant) []string {
	var v []string
	if d := after.stats.Flights.Deduped - before.stats.Flights.Deduped; d != 0 {
		v = append(v, fmt.Sprintf("singleflight deduped %d requests, want 0", d))
	}
	if d := after.stats.Cache.Hits - before.stats.Cache.Hits; d != want.cacheHits {
		v = append(v, fmt.Sprintf("result cache served %d hits, client saw %d", d, want.cacheHits))
	}
	if d := after.stats.Pool.Completed - before.stats.Pool.Completed; d != want.computed {
		v = append(v, fmt.Sprintf("pool completed %d computations, client expected %d", d, want.computed))
	}
	muts := after.prom.sum("crsky_mutations_total", nil) - before.prom.sum("crsky_mutations_total", nil)
	if int64(muts) != want.mutations {
		v = append(v, fmt.Sprintf("crsky_mutations_total moved by %v, client sent %d writes", muts, want.mutations))
	}
	if d := after.stats.Watch.Flipped - before.stats.Watch.Flipped; d != want.flips {
		v = append(v, fmt.Sprintf("watch delivered %d flipped events, client caused %d flips", d, want.flips))
	}
	return v
}

// serverLayers fills the per-layer metrics every workload shares: pool
// wait percentiles from the crsky_pool_wait_seconds delta, the result
// cache's hit ratio, and the HTTP overhead of kind — the median over its
// traced requests of the client-side time minus the server-side wall time
// the request's own trace reports (the log₂ buckets of
// crsky_request_duration_seconds are too coarse for a difference).
func serverLayers(l *ledger, p *phase, before, after scrape, kind string) {
	pw := after.prom.histogramOf("crsky_pool_wait_seconds", nil).
		minus(before.prom.histogramOf("crsky_pool_wait_seconds", nil))
	l.set("pool.wait_p50_ms", 1000*pw.quantile(0.5))
	l.set("pool.wait_p90_ms", 1000*pw.quantile(0.9))

	hits := after.stats.Cache.Hits - before.stats.Cache.Hits
	misses := after.stats.Cache.Misses - before.stats.Cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	l.set("cache.hit_ratio", ratio)

	var over []float64
	for _, rt := range p.traces {
		if rt.kind == kind && rt.trace != nil {
			over = append(over, msOf(rt.end.Sub(rt.start))-rt.trace.WallMs)
		}
	}
	if len(over) > 0 {
		l.set("http.overhead_ms", quantile(over, 0.5))
	}
}
