// Package rtree implements an in-memory R*-tree (Beckmann et al., SIGMOD
// 1990) — the index used by the paper for every dataset. It supports dynamic
// insertion with forced reinsertion, deletion with tree condensation, STR
// bulk loading, single- and multi-window search ("RecList" traversal from
// Algorithm 1), and the batch self-join of the query layer.
//
// Every traversal returns its own node-access count, the paper's I/O metric:
// each node it visits costs one simulated page access. Nothing is counted
// on the tree itself, so concurrent traversals never mix their counts.
// Fanout is derived from a configurable page size (4096 bytes by default,
// matching Section 5.1).
package rtree

import (
	"fmt"

	"github.com/crsky/crsky/internal/geom"
)

const (
	// DefaultPageSize mirrors the 4096-byte pages used in the paper.
	DefaultPageSize = 4096
	// nodeHeaderBytes approximates the per-page bookkeeping overhead.
	nodeHeaderBytes = 24
	// reinsertFraction is the share of entries force-reinserted on the
	// first overflow of a level (the R*-tree's 30% heuristic).
	reinsertFraction = 0.3
)

// entry is one slot of a node: a bounding rectangle plus either a data ID
// (leaf) or a child pointer (internal).
type entry struct {
	rect  geom.Rect
	id    int
	child *node
}

type node struct {
	leaf    bool
	entries []entry
	// tag is the copy-on-write ownership mark: a tree may mutate a node in
	// place only when the node's tag equals its own (see CloneCOW).
	tag uint64
}

func (n *node) mbr() geom.Rect {
	r := n.entries[0].rect.Clone()
	for _, e := range n.entries[1:] {
		r.ExpandToRect(e.rect)
	}
	return r
}

// Tree is an R*-tree over D-dimensional rectangles. Not safe for concurrent
// mutation; concurrent read-only queries are safe.
type Tree struct {
	dims       int
	maxEntries int
	minEntries int
	root       *node
	size       int
	height     int
	// tag is this tree's copy-on-write ownership mark; nodes stamped with
	// it are private and mutable in place, all others are copied first.
	tag uint64
}

// Option configures a Tree at construction time.
type Option func(*config)

type config struct {
	pageSize   int
	maxEntries int
}

// WithPageSize sets the simulated disk page size used to derive the fanout.
func WithPageSize(bytes int) Option {
	return func(c *config) { c.pageSize = bytes }
}

// WithMaxEntries overrides the page-size-derived fanout directly (mostly
// useful in tests to force deep trees on small inputs).
func WithMaxEntries(m int) Option {
	return func(c *config) { c.maxEntries = m }
}

// New creates an empty R*-tree for dims-dimensional data.
func New(dims int, opts ...Option) *Tree {
	if dims <= 0 {
		panic("rtree: dimensionality must be positive")
	}
	cfg := config{pageSize: DefaultPageSize}
	for _, o := range opts {
		o(&cfg)
	}
	max := cfg.maxEntries
	if max == 0 {
		// One rectangle (2*8*dims bytes) plus one pointer/ID per entry.
		entryBytes := 16*dims + 8
		max = (cfg.pageSize - nodeHeaderBytes) / entryBytes
	}
	if max < 4 {
		max = 4
	}
	min := max * 2 / 5 // the R*-tree's 40% minimum fill
	if min < 2 {
		min = 2
	}
	return &Tree{
		dims:       dims,
		maxEntries: max,
		minEntries: min,
		root:       &node{leaf: true},
		height:     1,
	}
}

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of stored data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// MaxEntries exposes the node fanout (for tests and diagnostics).
func (t *Tree) MaxEntries() int { return t.maxEntries }

// MinEntries exposes the minimum node fill (for tests and diagnostics).
func (t *Tree) MinEntries() int { return t.minEntries }

// Bounds returns the MBR of the whole tree and whether it is non-empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}

func (t *Tree) checkRect(r geom.Rect) {
	if len(r.Min) != t.dims || len(r.Max) != t.dims {
		panic(fmt.Sprintf("rtree: rect dimensionality %d/%d, tree is %d-dimensional",
			len(r.Min), len(r.Max), t.dims))
	}
	if !r.Valid() {
		panic(fmt.Sprintf("rtree: invalid rect %v", r))
	}
}
