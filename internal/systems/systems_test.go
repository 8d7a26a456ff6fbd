package systems

import (
	"math/rand/v2"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// smallSystems returns one small instance of every construction, for
// cross-cutting property tests.
func smallSystems(t *testing.T) []quorum.System {
	t.Helper()
	maj, err := NewMaj(7)
	if err != nil {
		t.Fatal(err)
	}
	wheel, err := NewWheel(6)
	if err != nil {
		t.Fatal(err)
	}
	triang, err := NewTriang(4)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewCW([]int{1, 3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	hqs, err := NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	return []quorum.System{maj, wheel, triang, cw, tree, hqs}
}

// TestAllSystemsAreNDCoteries is the master invariant: every construction
// yields a nondominated coterie (self-dual characteristic function) whose
// enumerated quorums form a coterie.
func TestAllSystemsAreNDCoteries(t *testing.T) {
	for _, sys := range smallSystems(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			if !quorum.IsCoterie(sys) {
				t.Error("enumerated quorums are not a coterie")
			}
			if err := quorum.CheckND(sys); err != nil {
				t.Errorf("not nondominated: %v", err)
			}
		})
	}
}

// TestContainsQuorumMatchesEnumeration cross-validates the structural
// characteristic function against explicit enumeration on random sets.
func TestContainsQuorumMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	for _, sys := range smallSystems(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			ref, err := quorum.NewExplicit(sys.Name(), sys.Size(), sys.Quorums())
			if err != nil {
				t.Fatalf("building explicit reference: %v", err)
			}
			n := sys.Size()
			for trial := 0; trial < 500; trial++ {
				s := bitset.New(n)
				for e := 0; e < n; e++ {
					if rng.IntN(2) == 0 {
						s.Add(e)
					}
				}
				if got, want := sys.ContainsQuorum(s), ref.ContainsQuorum(s); got != want {
					t.Fatalf("ContainsQuorum(%v) = %v, explicit says %v", s, got, want)
				}
			}
		})
	}
}

// TestFindQuorumWithin checks soundness and completeness of the structural
// quorum finders on random allowed sets.
func TestFindQuorumWithin(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, sys := range smallSystems(t) {
		finder, ok := sys.(quorum.Finder)
		if !ok {
			t.Fatalf("%s does not implement Finder", sys.Name())
		}
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			for trial := 0; trial < 500; trial++ {
				allowed := bitset.New(n)
				for e := 0; e < n; e++ {
					if rng.IntN(2) == 0 {
						allowed.Add(e)
					}
				}
				q, found := finder.FindQuorumWithin(allowed)
				if found != sys.ContainsQuorum(allowed) {
					t.Fatalf("FindQuorumWithin(%v) found=%v, ContainsQuorum=%v",
						allowed, found, sys.ContainsQuorum(allowed))
				}
				if found {
					if !q.SubsetOf(allowed) {
						t.Fatalf("found quorum %v outside allowed %v", q, allowed)
					}
					if !sys.ContainsQuorum(q) {
						t.Fatalf("found set %v is not a quorum", q)
					}
				}
			}
		})
	}
}

func TestMinMaxQuorumSizes(t *testing.T) {
	for _, sys := range smallSystems(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			sized := sys.(quorum.Sized)
			gotMin, gotMax := sized.MinQuorumSize(), sized.MaxQuorumSize()
			wantMin, wantMax := sys.Size()+1, 0
			for _, q := range sys.Quorums() {
				if c := q.Count(); c < wantMin {
					wantMin = c
				}
				if c := q.Count(); c > wantMax {
					wantMax = c
				}
			}
			if gotMin != wantMin || gotMax != wantMax {
				t.Errorf("sizes = %d..%d, enumeration says %d..%d", gotMin, gotMax, wantMin, wantMax)
			}
		})
	}
}

func TestMajConstruction(t *testing.T) {
	for _, n := range []int{0, -1, 2, 4} {
		if _, err := NewMaj(n); err == nil {
			t.Errorf("NewMaj(%d) succeeded, want error", n)
		}
	}
	m, err := NewMaj(5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Threshold() != 3 {
		t.Errorf("Threshold = %d, want 3", m.Threshold())
	}
	if got := len(m.Quorums()); got != 10 { // C(5,3)
		t.Errorf("Maj(5) has %d quorums, want 10", got)
	}
	if m.Name() != "Maj(5)" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestMajOfOne(t *testing.T) {
	m, err := NewMaj(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Quorums()); got != 1 {
		t.Errorf("Maj(1) has %d quorums, want 1", got)
	}
	if err := quorum.CheckND(m); err != nil {
		t.Errorf("Maj(1) should be ND: %v", err)
	}
}

func TestWheelConstruction(t *testing.T) {
	if _, err := NewWheel(2); err == nil {
		t.Error("NewWheel(2) succeeded, want error")
	}
	w, err := NewWheel(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Quorums()); got != 5 { // 4 spokes + rim
		t.Errorf("Wheel(5) has %d quorums, want 5", got)
	}
	if w.Hub() != 0 {
		t.Errorf("Hub = %d", w.Hub())
	}
}

func TestCWConstruction(t *testing.T) {
	bad := [][]int{
		{},        // no rows
		{2},       // first row too wide
		{1, 1},    // later row too narrow
		{1, 2, 0}, // zero width
	}
	for _, widths := range bad {
		if _, err := NewCW(widths); err == nil {
			t.Errorf("NewCW(%v) succeeded, want error", widths)
		}
	}
	cw, err := NewCW([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cw.Size() != 6 || cw.Rows() != 3 {
		t.Errorf("Size=%d Rows=%d", cw.Size(), cw.Rows())
	}
	if s, e := cw.RowRange(1); s != 1 || e != 3 {
		t.Errorf("RowRange(1) = [%d,%d)", s, e)
	}
	if cw.RowOf(0) != 0 || cw.RowOf(2) != 1 || cw.RowOf(5) != 2 {
		t.Error("RowOf mismatch")
	}
	if cw.MaxWidth() != 3 {
		t.Errorf("MaxWidth = %d", cw.MaxWidth())
	}
	if got := cw.Widths(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Widths = %v", got)
	}
}

func TestCWSingleRow(t *testing.T) {
	cw, err := NewCW([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cw.Quorums()); got != 1 {
		t.Errorf("single-row CW has %d quorums, want 1", got)
	}
	if !cw.ContainsQuorum(bitset.FromSlice(1, []int{0})) {
		t.Error("the unique element should be a quorum")
	}
}

func TestTriangStructure(t *testing.T) {
	tr, err := NewTriang(4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 10 { // 1+2+3+4
		t.Errorf("Triang(4) size = %d, want 10", tr.Size())
	}
	for i := 0; i < 4; i++ {
		if tr.Width(i) != i+1 {
			t.Errorf("row %d width = %d, want %d", i, tr.Width(i), i+1)
		}
	}
	if _, err := NewTriang(0); err == nil {
		t.Error("NewTriang(0) succeeded")
	}
}

// Paper Fig. 1: in Triang, a full row plus representatives below is a
// quorum; the top element alone plus representatives is the minimal one.
func TestTriangKnownQuorums(t *testing.T) {
	tr, err := NewTriang(3) // rows {0}, {1,2}, {3,4,5}
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		set  []int
		want bool
	}{
		{[]int{0, 1, 3}, true},    // row 0 full + reps from rows 1, 2
		{[]int{1, 2, 5}, true},    // row 1 full + rep from row 2
		{[]int{3, 4, 5}, true},    // bottom row full
		{[]int{0, 1}, false},      // missing rep from row 2
		{[]int{1, 3, 4}, false},   // row 1 not full
		{[]int{0, 3, 4, 5}, true}, // contains bottom row
		{[]int{2, 4}, false},      // nothing complete
	}
	for _, c := range cases {
		if got := tr.ContainsQuorum(bitset.FromSlice(6, c.set)); got != c.want {
			t.Errorf("ContainsQuorum(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestTreeConstruction(t *testing.T) {
	if _, err := NewTree(-1); err == nil {
		t.Error("NewTree(-1) succeeded")
	}
	tr, err := NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 7 || tr.Height() != 2 {
		t.Errorf("Size=%d Height=%d", tr.Size(), tr.Height())
	}
	if tr.Left(0) != 1 || tr.Right(0) != 2 {
		t.Error("child indices wrong")
	}
	if tr.IsLeaf(1) || !tr.IsLeaf(3) {
		t.Error("IsLeaf wrong")
	}
	// Known count: q(h) = 2q(h-1) + q(h-1)^2; q(0)=1, q(1)=3, q(2)=15.
	if got := len(tr.Quorums()); got != 15 {
		t.Errorf("Tree(2) has %d quorums, want 15", got)
	}
}

func TestTreeHeightZero(t *testing.T) {
	tr, err := NewTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1 {
		t.Errorf("Size = %d", tr.Size())
	}
	if !tr.ContainsQuorum(bitset.FromSlice(1, []int{0})) {
		t.Error("root alone should be a quorum")
	}
	if tr.ContainsQuorum(bitset.New(1)) {
		t.Error("empty set contains no quorum")
	}
}

// Paper Fig. 2 shape: root + quorum of one subtree, and union of quorums
// of both subtrees, are quorums.
func TestTreeKnownQuorums(t *testing.T) {
	tr, err := NewTree(2) // nodes 0..6, leaves 3,4,5,6
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		set  []int
		want bool
	}{
		{[]int{0, 1, 3}, true},    // root, left child, left-left leaf
		{[]int{0, 2, 6}, true},    // root + right path
		{[]int{1, 3, 2, 5}, true}, // quorums of both subtrees
		{[]int{3, 4, 5, 6}, true}, // all leaves
		{[]int{0, 1, 2}, false},   // no leaf support
		{[]int{0, 3, 4}, true},    // root + leaf-pair quorum of left subtree
		{[]int{1, 3}, false},      // left subtree only
	}
	for _, c := range cases {
		if got := tr.ContainsQuorum(bitset.FromSlice(7, c.set)); got != c.want {
			t.Errorf("ContainsQuorum(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestHQSConstruction(t *testing.T) {
	if _, err := NewHQS(-1); err == nil {
		t.Error("NewHQS(-1) succeeded")
	}
	h, err := NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 9 || h.Height() != 2 || h.QuorumSize() != 4 {
		t.Errorf("Size=%d Height=%d QuorumSize=%d", h.Size(), h.Height(), h.QuorumSize())
	}
	// Known count: 3^((3^h-1)/2): h=1 -> 3, h=2 -> 27.
	if got := len(h.Quorums()); got != 27 {
		t.Errorf("HQS(2) has %d quorums, want 27", got)
	}
	h1, err := NewHQS(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h1.Quorums()); got != 3 {
		t.Errorf("HQS(1) has %d quorums, want 3", got)
	}
	if h.SubtreeSize(0) != 9 || h.SubtreeSize(1) != 3 || h.SubtreeSize(2) != 1 {
		t.Error("SubtreeSize mismatch")
	}
}

// Paper Fig. 3: {1,2,5,6} (1-based) is a quorum of the height-2 HQS.
func TestHQSFigure3Quorum(t *testing.T) {
	h, err := NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	fig3 := bitset.FromSlice(9, []int{0, 1, 4, 5}) // 0-based
	if !h.ContainsQuorum(fig3) {
		t.Error("Fig. 3 quorum {1,2,5,6} not recognized")
	}
	// It should be minimal: removing any element breaks it.
	fig3.ForEach(func(e int) bool {
		smaller := fig3.Clone()
		smaller.Remove(e)
		if h.ContainsQuorum(smaller) {
			t.Errorf("removing %d leaves a quorum; Fig. 3 set not minimal", e)
		}
		return true
	})
}

// All HQS quorums have the uniform size 2^h (the paper's c-uniformity).
func TestHQSUniformSize(t *testing.T) {
	for height := 0; height <= 3; height++ {
		h, err := NewHQS(height)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 << uint(height)
		for _, q := range h.Quorums() {
			if q.Count() != want {
				t.Fatalf("HQS(%d) quorum %v has size %d, want %d", height, q, q.Count(), want)
			}
		}
	}
}

// Tree quorum sizes span h+1 (root path) to 2^h (all leaves).
func TestTreeQuorumSizeRange(t *testing.T) {
	tr, err := NewTree(3)
	if err != nil {
		t.Fatal(err)
	}
	minSz, maxSz := tr.Size()+1, 0
	for _, q := range tr.Quorums() {
		if c := q.Count(); c < minSz {
			minSz = c
		}
		if c := q.Count(); c > maxSz {
			maxSz = c
		}
	}
	if minSz != 4 || maxSz != 8 {
		t.Errorf("Tree(3) quorum sizes %d..%d, want 4..8", minSz, maxSz)
	}
}

// Larger instances: self-duality spot check without full enumeration.
func TestLargeSystemsSelfDualSpotCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	maj, _ := NewMaj(101)
	tree, _ := NewTree(6)   // n = 127
	hqs, _ := NewHQS(4)     // n = 81
	tri, _ := NewTriang(12) // n = 78
	for _, sys := range []quorum.System{maj, tree, hqs, tri} {
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			for trial := 0; trial < 200; trial++ {
				greens := bitset.New(n)
				for e := 0; e < n; e++ {
					if rng.IntN(2) == 0 {
						greens.Add(e)
					}
				}
				g := sys.ContainsQuorum(greens)
				r := sys.ContainsQuorum(greens.Complement())
				if g == r {
					t.Fatalf("self-duality violated on %v", greens)
				}
			}
		})
	}
}

func TestCWRowOfPanicsOutOfRange(t *testing.T) {
	cw, err := NewCW([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("RowOf out of range did not panic")
		}
	}()
	cw.RowOf(3)
}
