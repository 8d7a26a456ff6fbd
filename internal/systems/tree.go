package systems

import (
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// Tree is the tree quorum system of Agrawal & El-Abbadi [1]: the universe
// is the node set of a complete binary tree of height h (n = 2^(h+1) - 1
// elements, heap-indexed: root 0, children of v at 2v+1 and 2v+2), and a
// quorum is, recursively, either the root together with a quorum of one of
// its subtrees, or the union of quorums of both subtrees.
type Tree struct {
	h int
	n int
}

var (
	_ quorum.System = (*Tree)(nil)
	_ quorum.Finder = (*Tree)(nil)
	_ quorum.Sized  = (*Tree)(nil)
)

// NewTree returns the tree system over a complete binary tree of the given
// height (height 0 is a single node).
func NewTree(height int) (*Tree, error) {
	if height < 0 || height > 25 {
		return nil, fmt.Errorf("systems: Tree height must be in [0,25], got %d", height)
	}
	return &Tree{h: height, n: 1<<(uint(height)+1) - 1}, nil
}

// Name implements quorum.System.
func (t *Tree) Name() string { return fmt.Sprintf("Tree(h=%d,n=%d)", t.h, t.n) }

// Size implements quorum.System.
func (t *Tree) Size() int { return t.n }

// Height returns the tree height.
func (t *Tree) Height() int { return t.h }

// Root returns the root element index.
func (t *Tree) Root() int { return 0 }

// Left returns the left child of v.
func (t *Tree) Left(v int) int { return 2*v + 1 }

// Right returns the right child of v.
func (t *Tree) Right(v int) int { return 2*v + 2 }

// IsLeaf reports whether v is a leaf.
func (t *Tree) IsLeaf(v int) bool { return 2*v+1 >= t.n }

// MinQuorumSize implements quorum.Sized: a root-to-leaf path, h+1 nodes.
func (t *Tree) MinQuorumSize() int { return t.h + 1 }

// MaxQuorumSize implements quorum.Sized: the set of all 2^h leaves.
func (t *Tree) MaxQuorumSize() int { return 1 << uint(t.h) }

// ContainsQuorum implements quorum.System.
func (t *Tree) ContainsQuorum(s *bitset.Set) bool {
	return t.live(0, s)
}

// live evaluates the characteristic function on the subtree rooted at v:
// f(v) = x_v ∧ (f(L) ∨ f(R)) ∨ (f(L) ∧ f(R)), with f(leaf) = x_leaf.
func (t *Tree) live(v int, s *bitset.Set) bool {
	if t.IsLeaf(v) {
		return s.Contains(v)
	}
	l := t.live(t.Left(v), s)
	r := t.live(t.Right(v), s)
	if l && r {
		return true
	}
	return s.Contains(v) && (l || r)
}

// Quorums implements quorum.System by recursive minterm enumeration. It
// panics for heights above 3 where the count explodes.
func (t *Tree) Quorums() []*bitset.Set {
	if t.h > 3 {
		panic(fmt.Sprintf("systems: Tree.Quorums infeasible for height %d", t.h))
	}
	return t.enumerate(0)
}

func (t *Tree) enumerate(v int) []*bitset.Set {
	if t.IsLeaf(v) {
		return []*bitset.Set{bitset.FromSlice(t.n, []int{v})}
	}
	left := t.enumerate(t.Left(v))
	right := t.enumerate(t.Right(v))
	var out []*bitset.Set
	for _, q := range left {
		withRoot := q.Clone()
		withRoot.Add(v)
		out = append(out, withRoot)
	}
	for _, q := range right {
		withRoot := q.Clone()
		withRoot.Add(v)
		out = append(out, withRoot)
	}
	for _, ql := range left {
		for _, qr := range right {
			u := ql.Clone()
			u.UnionWith(qr)
			out = append(out, u)
		}
	}
	return out
}

// ContainsQuorumWords implements quorum.WideMaskSystem: the gate
// recursion descending over subtree ranges with word-bit tests, so the
// tree coterie evaluates at any height the universe bound admits.
func (t *Tree) ContainsQuorumWords(words []uint64) bool {
	return t.liveWords(0, words)
}

func (t *Tree) liveWords(v int, words []uint64) bool {
	if t.IsLeaf(v) {
		return quorum.WordBit(words, v)
	}
	l := t.liveWords(t.Left(v), words)
	r := t.liveWords(t.Right(v), words)
	if l && r {
		return true
	}
	return quorum.WordBit(words, v) && (l || r)
}

// FindQuorumWithin implements quorum.Finder, returning a smallest quorum
// inside allowed when one exists.
func (t *Tree) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	q := t.find(0, allowed)
	return q, q != nil
}

// find returns a smallest quorum of the subtree at v inside allowed, or
// nil.
func (t *Tree) find(v int, allowed *bitset.Set) *bitset.Set {
	if t.IsLeaf(v) {
		if allowed.Contains(v) {
			return bitset.FromSlice(t.n, []int{v})
		}
		return nil
	}
	l := t.find(t.Left(v), allowed)
	r := t.find(t.Right(v), allowed)
	var best *bitset.Set
	if allowed.Contains(v) {
		sub := l
		if sub == nil || (r != nil && r.Count() < sub.Count()) {
			sub = r
		}
		if sub != nil {
			best = sub.Clone()
			best.Add(v)
		}
	}
	if l != nil && r != nil {
		u := l.Clone()
		u.UnionWith(r)
		if best == nil || u.Count() < best.Count() {
			best = u
		}
	}
	return best
}
