package systems

import (
	"fmt"
	"strings"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// CW is a crumbling-wall quorum system (n1, ..., nk)-CW of [14]: the
// elements are arranged in k rows of the given widths, and a quorum is one
// full row j together with a single representative from every row below j.
//
// With n1 = 1 and ni >= 2 for i >= 2 the system is a nondominated coterie;
// NewCW enforces those conditions.
type CW struct {
	name    string
	spec    string // canonical spec string, e.g. "cw:1,3,2" or "triang:5"
	widths  []int
	offsets []int // offsets[i] is the index of the first element of row i
	n       int
	windows []rowWindow // windows[i] is row i's word window
}

var (
	_ quorum.System = (*CW)(nil)
	_ quorum.Finder = (*CW)(nil)
	_ quorum.Sized  = (*CW)(nil)
)

// NewCW returns the (widths[0], ..., widths[k-1])-CW system. To guarantee a
// nondominated coterie the first row must have width 1 and every later row
// width at least 2 (Peleg & Wool [14]).
func NewCW(widths []int) (*CW, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("systems: CW requires at least one row")
	}
	if widths[0] != 1 {
		return nil, fmt.Errorf("systems: CW first row must have width 1, got %d", widths[0])
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] < 2 {
			return nil, fmt.Errorf("systems: CW row %d must have width >= 2, got %d", i+1, widths[i])
		}
	}
	w := make([]int, len(widths))
	copy(w, widths)
	offsets := make([]int, len(w))
	n := 0
	for i, wd := range w {
		offsets[i] = n
		n += wd
	}
	parts := make([]string, len(w))
	for i, wd := range w {
		parts[i] = fmt.Sprintf("%d", wd)
	}
	windows := make([]rowWindow, len(w))
	for i, wd := range w {
		windows[i] = newRowWindow(offsets[i], offsets[i]+wd)
	}
	return &CW{
		name:    fmt.Sprintf("CW(%s)", strings.Join(parts, ",")),
		spec:    fmt.Sprintf("cw:%s", strings.Join(parts, ",")),
		widths:  w,
		offsets: offsets,
		n:       n,
		windows: windows,
	}, nil
}

// NewTriang returns the Triang system with k rows: the (1, 2, ..., k)-CW
// of Lovász [9] and Erdős–Lovász [2].
func NewTriang(k int) (*CW, error) {
	if k < 1 {
		return nil, fmt.Errorf("systems: Triang requires k >= 1, got %d", k)
	}
	widths := make([]int, k)
	for i := range widths {
		widths[i] = i + 1
	}
	cw, err := NewCW(widths)
	if err != nil {
		return nil, err
	}
	cw.name = fmt.Sprintf("Triang(%d)", k)
	cw.spec = fmt.Sprintf("triang:%d", k)
	return cw, nil
}

// Name implements quorum.System.
func (c *CW) Name() string { return c.name }

// Size implements quorum.System.
func (c *CW) Size() int { return c.n }

// Rows returns the number of rows k.
func (c *CW) Rows() int { return len(c.widths) }

// Widths returns a copy of the row widths.
func (c *CW) Widths() []int {
	w := make([]int, len(c.widths))
	copy(w, c.widths)
	return w
}

// Width returns the width of row i (0-based).
func (c *CW) Width(i int) int { return c.widths[i] }

// MaxWidth returns the width m of the widest row.
func (c *CW) MaxWidth() int {
	m := 0
	for _, w := range c.widths {
		if w > m {
			m = w
		}
	}
	return m
}

// RowRange returns the half-open element range [start, end) of row i.
func (c *CW) RowRange(i int) (start, end int) {
	return c.offsets[i], c.offsets[i] + c.widths[i]
}

// RowOf returns the row index containing element e.
func (c *CW) RowOf(e int) int {
	for i := range c.widths {
		if s, t := c.RowRange(i); e >= s && e < t {
			return i
		}
	}
	panic(fmt.Sprintf("systems: element %d out of range [0,%d)", e, c.n))
}

// ContainsQuorum implements quorum.System: s contains a quorum iff there is
// a row j fully inside s such that every row below j meets s.
func (c *CW) ContainsQuorum(s *bitset.Set) bool {
	k := len(c.widths)
	// suffixHit reports, maintained bottom-up, that every row strictly
	// below the current row meets s.
	suffixHit := true
	for j := k - 1; j >= 0; j-- {
		start, end := c.RowRange(j)
		full, any := true, false
		for e := start; e < end; e++ {
			if s.Contains(e) {
				any = true
			} else {
				full = false
			}
		}
		if full && suffixHit {
			return true
		}
		suffixHit = suffixHit && any
		if !suffixHit && j > 0 {
			// No row above j can form a quorum either; but keep scanning is
			// pointless — every higher row needs a representative from row j.
			return false
		}
	}
	return false
}

// MinQuorumSize implements quorum.Sized.
func (c *CW) MinQuorumSize() int {
	k := len(c.widths)
	best := c.n + 1
	for j := 0; j < k; j++ {
		if sz := c.widths[j] + (k - 1 - j); sz < best {
			best = sz
		}
	}
	return best
}

// MaxQuorumSize implements quorum.Sized.
func (c *CW) MaxQuorumSize() int {
	k := len(c.widths)
	best := 0
	for j := 0; j < k; j++ {
		if sz := c.widths[j] + (k - 1 - j); sz > best {
			best = sz
		}
	}
	return best
}

// Quorums implements quorum.System by explicit enumeration: for every row
// j, the full row crossed with every choice of representatives below.
// It panics when the count would exceed about a million.
func (c *CW) Quorums() []*bitset.Set {
	k := len(c.widths)
	total := 0
	for j := 0; j < k; j++ {
		cnt := 1
		for i := j + 1; i < k; i++ {
			cnt *= c.widths[i]
			if cnt > 1<<20 {
				panic(fmt.Sprintf("systems: CW.Quorums infeasible for %s", c.name))
			}
		}
		total += cnt
	}
	out := make([]*bitset.Set, 0, total)
	for j := 0; j < k; j++ {
		base := bitset.New(c.n)
		start, end := c.RowRange(j)
		for e := start; e < end; e++ {
			base.Add(e)
		}
		out = c.appendReps(out, base, j+1)
	}
	return out
}

// appendReps extends base with every choice of one representative from each
// row i >= row, appending completed quorums to out.
func (c *CW) appendReps(out []*bitset.Set, base *bitset.Set, row int) []*bitset.Set {
	if row == len(c.widths) {
		return append(out, base.Clone())
	}
	start, end := c.RowRange(row)
	for e := start; e < end; e++ {
		base.Add(e)
		out = c.appendReps(out, base, row+1)
		base.Remove(e)
	}
	return out
}

// rowWindow is a row's element range in the wide-mask word layout: the
// first and last word it touches and the row's bits in each of them. A
// row inside one word has lw == hw and lo == hi.
type rowWindow struct {
	lw, hw int
	lo, hi uint64
}

// newRowWindow returns the word window of the elements [start, end).
func newRowWindow(start, end int) rowWindow {
	lw, hw := start/quorum.MaskWords, (end-1)/quorum.MaskWords
	lo := ^bitset.LowMask(start % quorum.MaskWords)
	hi := bitset.LowMask((end-1)%quorum.MaskWords + 1)
	if lw == hw {
		lo &= hi
		hi = lo
	}
	return rowWindow{lw: lw, hw: hw, lo: lo, hi: hi}
}

// ContainsQuorumWords implements quorum.WideMaskSystem: the bottom-up
// row scan of ContainsQuorum with each row's full/hit tests evaluated on
// its precomputed word window, one AND and one compare for a row inside a
// single word. Every row below the current one is known to be hit, else
// the scan would have returned already.
func (c *CW) ContainsQuorumWords(words []uint64) bool {
	for j := len(c.windows) - 1; j >= 0; j-- {
		r := &c.windows[j]
		if r.lw == r.hw {
			hit := words[r.lw] & r.lo
			if hit == r.lo {
				return true
			}
			if hit == 0 && j > 0 {
				// Every row above j needs a representative from row j.
				return false
			}
			continue
		}
		if r.full(words) {
			return true
		}
		if j > 0 && !r.any(words) {
			return false
		}
	}
	return false
}

// full reports whether every bit of a multi-word window is set.
func (r *rowWindow) full(words []uint64) bool {
	if words[r.lw]&r.lo != r.lo || words[r.hw]&r.hi != r.hi {
		return false
	}
	for _, w := range words[r.lw+1 : r.hw] {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// any reports whether some bit of a multi-word window is set.
func (r *rowWindow) any(words []uint64) bool {
	if words[r.lw]&r.lo != 0 || words[r.hw]&r.hi != 0 {
		return true
	}
	for _, w := range words[r.lw+1 : r.hw] {
		if w != 0 {
			return true
		}
	}
	return false
}

// FindQuorumWithin implements quorum.Finder.
func (c *CW) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	k := len(c.widths)
	// reps[i] is an allowed representative of row i, or -1.
	reps := make([]int, k)
	full := make([]bool, k)
	for i := 0; i < k; i++ {
		start, end := c.RowRange(i)
		reps[i] = -1
		full[i] = true
		for e := start; e < end; e++ {
			if allowed.Contains(e) {
				if reps[i] < 0 {
					reps[i] = e
				}
			} else {
				full[i] = false
			}
		}
	}
	suffixHit := true
	best := -1
	for j := k - 1; j >= 0; j-- {
		if full[j] && suffixHit {
			best = j // keep scanning upward: prefer the highest (smallest) row
		}
		suffixHit = suffixHit && reps[j] >= 0
	}
	if best < 0 {
		return nil, false
	}
	q := bitset.New(c.n)
	start, end := c.RowRange(best)
	for e := start; e < end; e++ {
		q.Add(e)
	}
	for i := best + 1; i < k; i++ {
		q.Add(reps[i])
	}
	return q, true
}
