package rtree

import "github.com/crsky/crsky/internal/geom"

// NodeHandle is an opaque, read-only reference to a tree node, enabling
// custom branch-and-bound traversals (e.g. BBRS) that the canned Search
// variants cannot express. Handles become stale after tree mutation.
type NodeHandle struct {
	n *node
}

// RootHandle returns a handle to the root node; ok is false for an empty
// tree. The caller counts its own node accesses as it visits nodes.
func (t *Tree) RootHandle() (NodeHandle, bool) {
	if t.size == 0 {
		return NodeHandle{}, false
	}
	return NodeHandle{n: t.root}, true
}

// IsLeaf reports whether the node holds data entries.
func (h NodeHandle) IsLeaf() bool { return h.n.leaf }

// NumEntries returns the number of entries in the node.
func (h NodeHandle) NumEntries() int { return len(h.n.entries) }

// EntryRect returns the bounding rectangle of entry i. The returned rect
// shares storage with the tree; callers must not mutate it.
func (h NodeHandle) EntryRect(i int) geom.Rect { return h.n.entries[i].rect }

// EntryID returns the data ID of entry i (leaf nodes only).
func (h NodeHandle) EntryID(i int) int { return h.n.entries[i].id }

// EntryChild returns a handle to the child node of entry i (internal nodes
// only).
func (h NodeHandle) EntryChild(i int) NodeHandle {
	return NodeHandle{n: h.n.entries[i].child}
}
