package rw

import (
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// This file holds the native role systems behind the grid constructor:
// grid rows and grid transversals. Each is a full wide-mask-native
// quorum.System in its own right. Within a role the quorums need not
// pairwise intersect (ROWA reads do not): intersection is a pair
// property (duality), not a role property. Read-one/write-all's roles
// are systems.Choose threshold families, and roles given as explicit
// quorum lists are quorum.NewFamily values, quorum.Explicit without the
// intersection check.

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
// the enumeration budget; use quorum.EnumerateQuorums for the error form.
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
