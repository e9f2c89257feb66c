package rtree

import "sync/atomic"

// cowTags issues globally unique ownership tags for copy-on-write clones.
// A node is mutable by a tree iff their tags match; every clone moves both
// trees onto fresh tags, so nodes built before the clone are frozen for
// both sides and copied on first touch.
var cowTags atomic.Uint64

// CloneCOW returns a copy-on-write clone sharing every node with t. The
// clone (and t itself) copy any shared node — and only the nodes on the
// root-to-leaf path they touch — before mutating it, so readers holding
// either tree never observe the other side's writes: an insert into the
// clone clones O(height) nodes and leaves t's structure bit-identical.
// Cloning is O(1).
func (t *Tree) CloneCOW() *Tree {
	c := *t
	c.tag = cowTags.Add(1)
	// Retag t as well: nodes created before this call are now shared, so
	// even the original must copy them before its next in-place mutation.
	t.tag = cowTags.Add(1)
	return &c
}

// mutable returns a node the tree may write to: n itself when the tree
// already owns it, otherwise a private copy (entries included) stamped
// with the tree's tag. The caller must link the copy into the tree.
func (t *Tree) mutable(n *node) *node {
	if n.tag == t.tag {
		return n
	}
	es := make([]entry, len(n.entries))
	copy(es, n.entries)
	return &node{leaf: n.leaf, entries: es, tag: t.tag}
}

// materialize rewrites a root-to-leaf path in place so every node on it is
// owned by t, re-pointing each parent's child entry at the copy. path[0]
// must be t's root. After the call the mutation code may write to any path
// node without touching nodes shared with a clone.
func (t *Tree) materialize(path []*node) {
	for i, n := range path {
		m := t.mutable(n)
		if m == n {
			continue
		}
		path[i] = m
		if i == 0 {
			t.root = m
			continue
		}
		parent := path[i-1] // already owned: materialization runs top-down
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j].child = m
				break
			}
		}
	}
}
