package render

import (
	"strings"
	"testing"

	"probequorum/internal/bitset"
	col "probequorum/internal/coloring"
	"probequorum/internal/strategy"
	"probequorum/internal/systems"
)

// Fig. 1: Triang with a shaded quorum (row 2 full plus representatives).
func TestCWFigure1(t *testing.T) {
	tr, err := systems.NewTriang(3)
	if err != nil {
		t.Fatal(err)
	}
	quorum, ok := tr.FindQuorumWithin(bitset.FromSlice(6, []int{1, 2, 4}))
	if !ok {
		t.Fatal("expected quorum {2,3,5}")
	}
	out := tr.RenderASCII(quorum)
	want := "" +
		"row 1:     1 \n" +
		"row 2:  [2][3]\n" +
		"row 3:  4 [5] 6 \n"
	if out != want {
		t.Errorf("CW render:\n%q\nwant:\n%q", out, want)
	}
}

func TestCWNoHighlight(t *testing.T) {
	w, err := systems.NewCW([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	out := w.RenderASCII(nil)
	if strings.Contains(out, "[") {
		t.Errorf("unexpected highlight in %q", out)
	}
	if !strings.Contains(out, "row 1") || !strings.Contains(out, "row 2") {
		t.Errorf("missing rows in %q", out)
	}
}

// Fig. 2: the tree system with a root-path quorum shaded.
func TestTreeFigure2(t *testing.T) {
	tr, err := systems.NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	// Quorum {root, right child, right-right leaf} = {0, 2, 6}.
	q := bitset.FromSlice(7, []int{0, 2, 6})
	if !tr.ContainsQuorum(q) {
		t.Fatal("root-path set is not a quorum")
	}
	out := tr.RenderASCII(q)
	want := "" +
		"        [7]\n" +
		"    [3]\n" +
		"        6\n" +
		"[1]\n" +
		"        5\n" +
		"    2\n" +
		"        4\n"
	if out != want {
		t.Errorf("Tree render:\n%s\nwant:\n%s", out, want)
	}
}

// Fig. 3: HQS of height 2 with the quorum {1,2,5,6} shaded.
func TestHQSFigure3(t *testing.T) {
	h, err := systems.NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromSlice(9, []int{0, 1, 4, 5})
	out := h.RenderASCII(q)
	if !strings.Contains(out, "MAJ") {
		t.Errorf("missing gate row:\n%s", out)
	}
	for _, want := range []string{"[1]", "[2]", "[5]", "[6]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing highlighted leaf %s in:\n%s", want, out)
		}
	}
	for _, plain := range []string{" 3 ", " 4 ", " 7 ", " 8 ", " 9"} {
		if !strings.Contains(out, plain) {
			t.Errorf("missing plain leaf %q in:\n%s", plain, out)
		}
	}
	// One root gate row plus one row of three gates.
	if got := strings.Count(out, "MAJ"); got != 4 {
		t.Errorf("gate count = %d, want 4", got)
	}
}

// Fig. 4: the Maj3 decision tree with +/- leaves.
func TestStrategyTreeFigure4(t *testing.T) {
	m, err := systems.NewMaj(3)
	if err != nil {
		t.Fatal(err)
	}
	root, err := strategy.BuildOptimalPC(m)
	if err != nil {
		t.Fatal(err)
	}
	out := StrategyTree(root)
	if strings.Count(out, "+")+strings.Count(out, "-") != root.Leaves() {
		t.Errorf("leaf marks do not match leaf count:\n%s", out)
	}
	if !strings.Contains(out, "x1") {
		t.Errorf("missing probe label x1:\n%s", out)
	}
	if !strings.Contains(out, "g: ") || !strings.Contains(out, "r: ") {
		t.Errorf("missing branch labels:\n%s", out)
	}
}

func TestColoringRender(t *testing.T) {
	c, err := col.Parse("RGGRGG")
	if err != nil {
		t.Fatal(err)
	}
	if got := Coloring(c, 0); got != "RGGRGG" {
		t.Errorf("single row = %q", got)
	}
	if got, want := Coloring(c, 3), "RGG\nRGG\n"; got != want {
		t.Errorf("wrapped = %q, want %q", got, want)
	}
}
