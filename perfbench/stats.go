package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted. It
// returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantiles are the tail percentiles a report may carry, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tailQuantile picks the highest tail percentile that has at least ten
// samples beyond it among n samples: p90 needs 100 samples, p99 1000.
// ok is false when even p90 is not supported.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// cycle is one completed closed-loop cycle of one client: when it ended,
// measured from the start of the timed phase, and how many requests it
// completed.
type cycle struct {
	end time.Duration
	ops int
}

// wholeCycleRate is the throughput of closed-loop clients counted over
// whole cycles only: each client contributes the requests of its completed
// cycles divided by the time its last completed cycle ended, and the
// clients' rates add. A cycle cut by the deadline is never counted, so a
// client's rate does not depend on where the deadline fell inside a cycle.
func wholeCycleRate(clients [][]cycle) float64 {
	var total float64
	for _, cs := range clients {
		if len(cs) == 0 {
			continue
		}
		ops := 0
		var last time.Duration
		for _, c := range cs {
			ops += c.ops
			if c.end > last {
				last = c.end
			}
		}
		if last > 0 {
			total += float64(ops) / last.Seconds()
		}
	}
	return total
}

// span is one timed interval of the benchmark's trace. Spans that belong
// to one request or one replayed call share Req; Parent is 0 for a root.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

func (s span) dur() float64 { return s.End - s.Start }

// selfTimes returns each span's self time in ms: its duration minus the
// part of its interval that its children cover. Overlapping children are
// merged first, and a child's interval is clipped to its parent's, so
// concurrent children never drive a self time below zero.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered := 0.0
		curS, curE := math.Inf(-1), math.Inf(-1)
		for _, iv := range ivs {
			a, b := math.Max(iv[0], s.Start), math.Min(iv[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// promSeries is one sample line of the Prometheus text format.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads Prometheus text-format exposition into its sample
// lines; comments and blank lines are skipped.
func parseProm(text string) ([]promSeries, error) {
	var out []promSeries
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %w", line, err)
		}
		head := line[:sp]
		s := promSeries{value: v, labels: map[string]string{}}
		if i := strings.IndexByte(head, '{'); i >= 0 {
			s.name = head[:i]
			body := strings.TrimSuffix(head[i+1:], "}")
			for body != "" {
				eq := strings.IndexByte(body, '=')
				if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
					return nil, fmt.Errorf("prom: bad labels in %q", line)
				}
				key := body[:eq]
				rest := body[eq+2:]
				var val strings.Builder
				j := 0
				for ; j < len(rest) && rest[j] != '"'; j++ {
					if rest[j] == '\\' && j+1 < len(rest) {
						j++
						switch rest[j] {
						case 'n':
							val.WriteByte('\n')
						default:
							val.WriteByte(rest[j])
						}
						continue
					}
					val.WriteByte(rest[j])
				}
				if j >= len(rest) {
					return nil, fmt.Errorf("prom: unterminated label in %q", line)
				}
				s.labels[key] = val.String()
				body = strings.TrimPrefix(rest[j+1:], ",")
			}
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// promScrape is one parsed /metrics scrape.
type promScrape []promSeries

// matches reports whether s carries every label in want.
func (s promSeries) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of the named metric whose labels include want.
func (p promScrape) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range p {
		if s.name == name && s.matches(want) {
			t += s.value
		}
	}
	return t
}

// histogram is the cumulative bucket view of one Prometheus histogram,
// summed over the series that match a label filter.
type histogram struct {
	bounds []float64 // ascending upper bounds, +Inf last
	cum    []float64 // cumulative counts per bound
	sum    float64
	count  float64
}

// histogramOf collects the named histogram family from a scrape, adding up
// the series whose labels include want.
func (p promScrape) histogramOf(name string, want map[string]string) histogram {
	byLE := map[float64]float64{}
	var h histogram
	for _, s := range p {
		if !s.matches(want) {
			continue
		}
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			byLE[le] += s.value
		case name + "_sum":
			h.sum += s.value
		case name + "_count":
			h.count += s.value
		}
	}
	for le := range byLE {
		h.bounds = append(h.bounds, le)
	}
	sort.Float64s(h.bounds)
	for _, le := range h.bounds {
		h.cum = append(h.cum, byLE[le])
	}
	return h
}

// minus returns the histogram of the observations recorded between
// before (h0) and after (h): bucket-wise differences on h's bounds.
func (h histogram) minus(h0 histogram) histogram {
	prev := map[float64]float64{}
	for i, le := range h0.bounds {
		prev[le] = h0.cum[i]
	}
	d := histogram{bounds: append([]float64(nil), h.bounds...), sum: h.sum - h0.sum, count: h.count - h0.count}
	for i, le := range h.bounds {
		d.cum = append(d.cum, h.cum[i]-prev[le])
	}
	return d
}

// quantile estimates the q-quantile from cumulative buckets the way
// Prometheus's histogram_quantile does: linear interpolation inside the
// bucket holding the rank, with the lower edge of the first bucket at 0.
// A rank in the +Inf bucket returns the highest finite bound.
func (h histogram) quantile(q float64) float64 {
	if h.count <= 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	lower, below := 0.0, 0.0
	for i, le := range h.bounds {
		if h.cum[i] >= rank {
			if math.IsInf(le, 1) {
				return lower
			}
			inBucket := h.cum[i] - below
			if inBucket <= 0 {
				return le
			}
			return lower + (le-lower)*(rank-below)/inBucket
		}
		lower, below = le, h.cum[i]
	}
	return lower
}

// mean is the histogram's average observation, 0 when it is empty.
func (h histogram) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}
