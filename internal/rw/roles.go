package rw

import (
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// This file holds the native role systems behind the two-role
// constructors: Choose(k of n) threshold roles (read-one/write-all),
// grid rows and grid transversals. Each is a full wide-mask-native
// quorum.System in its own right. Within a role the quorums need not
// pairwise intersect (ROWA reads do not): intersection is a pair
// property (duality), not a role property. Roles given as explicit
// quorum lists are quorum.NewFamily values, quorum.Explicit without the
// intersection check.

// Choose is the threshold role whose minimal quorums are exactly the
// k-element subsets of an n-element universe: membership is a popcount.
type Choose struct {
	k, n int
}

var (
	_ quorum.System          = (*Choose)(nil)
	_ quorum.Finder          = (*Choose)(nil)
	_ quorum.Sized           = (*Choose)(nil)
	_ quorum.WideMaskSystem  = (*Choose)(nil)
	_ quorum.ExactResilience = (*Choose)(nil)
)

// NewChoose returns the role whose quorums are the k-subsets of
// {0..n-1}.
func NewChoose(k, n int) (*Choose, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("rw: choose needs 1 <= k <= n, got k=%d n=%d", k, n)
	}
	return &Choose{k: k, n: n}, nil
}

// Name implements quorum.System.
func (c *Choose) Name() string { return fmt.Sprintf("Choose(%d of %d)", c.k, c.n) }

// Size implements quorum.System.
func (c *Choose) Size() int { return c.n }

// Threshold returns k.
func (c *Choose) Threshold() int { return c.k }

// ContainsQuorum implements quorum.System.
func (c *Choose) ContainsQuorum(s *bitset.Set) bool { return s.Count() >= c.k }

// ContainsQuorumWords implements quorum.WideMaskSystem.
func (c *Choose) ContainsQuorumWords(words []uint64) bool {
	return quorum.PopcountWords(words) >= c.k
}

// Quorums implements quorum.System by enumerating the k-subsets with
// Gosper's hack. It panics beyond the enumeration budget or one word;
// use enumerateQuorums for the error-returning form.
func (c *Choose) Quorums() []*bitset.Set {
	if c.n > quorum.MaskWords {
		panic(fmt.Sprintf("rw: Choose enumeration requires n <= %d, got %d", quorum.MaskWords, c.n))
	}
	if binomialAbove(c.n, c.k, quorum.EnumerationBudget) {
		panic(fmt.Sprintf("rw: Choose(%d of %d) enumerates more than %d quorums", c.k, c.n, quorum.EnumerationBudget))
	}
	var out []*bitset.Set
	limit := quorum.FullMask(c.n)
	for m := quorum.FullMask(c.k); m <= limit; {
		out = append(out, quorum.SetOfMask(c.n, m))
		// Gosper's hack: next mask with the same popcount.
		u := m & -m
		v := m + u
		if v > limit || v < m {
			break
		}
		m = v | ((m ^ v) / u >> 2)
	}
	return out
}

// FindQuorumWithin implements quorum.Finder: the k lowest allowed
// elements.
func (c *Choose) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	if allowed.Count() < c.k {
		return nil, false
	}
	q := bitset.New(c.n)
	taken := 0
	allowed.ForEach(func(e int) bool {
		q.Add(e)
		taken++
		return taken < c.k
	})
	return q, true
}

// MinQuorumSize implements quorum.Sized.
func (c *Choose) MinQuorumSize() int { return c.k }

// MaxQuorumSize implements quorum.Sized.
func (c *Choose) MaxQuorumSize() int { return c.k }

// Resilience implements quorum.ExactResilience: n-k failures leave k
// elements (a quorum); n-k+1 leave none.
func (c *Choose) Resilience() int { return c.n - c.k }

// binomialAbove reports whether C(n, k) exceeds the budget without
// overflowing.
func binomialAbove(n, k, budget int) bool {
	if k > n-k {
		k = n - k
	}
	v := 1
	for i := 1; i <= k; i++ {
		v = v * (n - k + i) / i
		if v > budget {
			return true
		}
	}
	return false
}

// grid is the shared shape of the two grid roles: r rows of c elements,
// element e = row*c + col, with per-row bitsets and wide masks
// precomputed once.
type grid struct {
	r, c     int
	rows     []*bitset.Set
	rowWords [][]uint64
}

func gridShape(r, c int) *grid {
	n := r * c
	g := &grid{r: r, c: c, rows: make([]*bitset.Set, r), rowWords: make([][]uint64, r)}
	for i := 0; i < r; i++ {
		row := bitset.New(n)
		for j := 0; j < c; j++ {
			row.Add(i*c + j)
		}
		g.rows[i] = row
		g.rowWords[i] = quorum.WordsOf(row)
	}
	return g
}

func (g *grid) n() int { return g.r * g.c }

// gridRows is the grid read role: a quorum is any full row.
type gridRows struct {
	*grid
}

var (
	_ quorum.System          = (*gridRows)(nil)
	_ quorum.Finder          = (*gridRows)(nil)
	_ quorum.Sized           = (*gridRows)(nil)
	_ quorum.WideMaskSystem  = (*gridRows)(nil)
	_ quorum.ExactResilience = (*gridRows)(nil)
)

func (g *gridRows) Name() string { return fmt.Sprintf("GridRows(%dx%d)", g.r, g.c) }
func (g *gridRows) Size() int    { return g.n() }

func (g *gridRows) ContainsQuorum(s *bitset.Set) bool {
	for _, row := range g.rows {
		if row.SubsetOf(s) {
			return true
		}
	}
	return false
}

func (g *gridRows) ContainsQuorumWords(words []uint64) bool {
	for _, row := range g.rowWords {
		if quorum.SubsetOfWords(row, words) {
			return true
		}
	}
	return false
}

func (g *gridRows) Quorums() []*bitset.Set {
	out := make([]*bitset.Set, g.r)
	for i, row := range g.rows {
		out[i] = row.Clone()
	}
	return out
}

func (g *gridRows) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	for _, row := range g.rows {
		if row.SubsetOf(allowed) {
			return row.Clone(), true
		}
	}
	return nil, false
}

func (g *gridRows) MinQuorumSize() int { return g.c }
func (g *gridRows) MaxQuorumSize() int { return g.c }

// Resilience implements quorum.ExactResilience: killing every row takes
// one element per row, so any r-1 failures leave a full row alive.
func (g *gridRows) Resilience() int { return g.r - 1 }

// gridTransversal is the grid write role: a quorum is any transversal
// hitting every row (minimal quorums pick exactly one element per row,
// c^r of them — membership never enumerates).
type gridTransversal struct {
	*grid
}

var (
	_ quorum.System          = (*gridTransversal)(nil)
	_ quorum.Finder          = (*gridTransversal)(nil)
	_ quorum.Sized           = (*gridTransversal)(nil)
	_ quorum.WideMaskSystem  = (*gridTransversal)(nil)
	_ quorum.ExactResilience = (*gridTransversal)(nil)
)

func (g *gridTransversal) Name() string { return fmt.Sprintf("GridTransversal(%dx%d)", g.r, g.c) }
func (g *gridTransversal) Size() int    { return g.n() }

func (g *gridTransversal) ContainsQuorum(s *bitset.Set) bool {
	for _, row := range g.rows {
		if !row.Intersects(s) {
			return false
		}
	}
	return true
}

func (g *gridTransversal) ContainsQuorumWords(words []uint64) bool {
	for _, row := range g.rowWords {
		hit := false
		for i, w := range row {
			if w&words[i] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Quorums enumerates the c^r one-per-row transversals. It panics beyond
// the enumeration budget; use enumerateQuorums for the error form.
func (g *gridTransversal) Quorums() []*bitset.Set {
	if pow := powAbove(g.c, g.r, quorum.EnumerationBudget); pow {
		panic(fmt.Sprintf("rw: GridTransversal(%dx%d) enumerates more than %d quorums", g.r, g.c, quorum.EnumerationBudget))
	}
	pick := make([]int, g.r)
	var out []*bitset.Set
	for {
		q := bitset.New(g.n())
		for i, col := range pick {
			q.Add(i*g.c + col)
		}
		out = append(out, q)
		// Odometer over the per-row column picks.
		i := g.r - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < g.c {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func (g *gridTransversal) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	q := bitset.New(g.n())
	for _, row := range g.rows {
		found := -1
		row.ForEach(func(e int) bool {
			if allowed.Contains(e) {
				found = e
				return false
			}
			return true
		})
		if found < 0 {
			return nil, false
		}
		q.Add(found)
	}
	return q, true
}

func (g *gridTransversal) MinQuorumSize() int { return g.r }
func (g *gridTransversal) MaxQuorumSize() int { return g.r }

// Resilience implements quorum.ExactResilience: only a whole dead row
// (c elements) blocks every transversal.
func (g *gridTransversal) Resilience() int { return g.c - 1 }

// powAbove reports whether c^r exceeds the budget without overflowing.
func powAbove(c, r, budget int) bool {
	v := 1
	for i := 0; i < r; i++ {
		v *= c
		if v > budget {
			return true
		}
	}
	return false
}
