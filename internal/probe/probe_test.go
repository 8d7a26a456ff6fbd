package probe

import (
	"errors"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
)

func maj3(t *testing.T) *quorum.Explicit {
	t.Helper()
	e, err := quorum.NewExplicit("Maj3", 3, []*bitset.Set{
		bitset.FromSlice(3, []int{0, 1}),
		bitset.FromSlice(3, []int{1, 2}),
		bitset.FromSlice(3, []int{0, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOracleCountsDistinctProbes(t *testing.T) {
	col := coloring.FromReds(4, []int{2})
	o := NewOracle(col)
	if o.Probes() != 0 {
		t.Errorf("fresh oracle Probes = %d", o.Probes())
	}
	if got := o.Probe(2); got != coloring.Red {
		t.Errorf("Probe(2) = %s, want red", got)
	}
	if got := o.Probe(0); got != coloring.Green {
		t.Errorf("Probe(0) = %s, want green", got)
	}
	o.Probe(2) // repeat
	if o.Probes() != 2 {
		t.Errorf("Probes = %d, want 2 (distinct)", o.Probes())
	}
	order := o.Order()
	if len(order) != 2 || order[0] != 2 || order[1] != 0 {
		t.Errorf("Order = %v, want [2 0]", order)
	}
	probed := o.Probed()
	if !probed.Contains(2) || !probed.Contains(0) || probed.Contains(1) {
		t.Errorf("Probed = %v", probed)
	}
	// Probed returns a copy.
	probed.Add(1)
	if o.Probes() != 2 {
		t.Error("Probed returned aliased set")
	}
}

func TestOracleReset(t *testing.T) {
	o := NewOracle(coloring.New(3))
	o.Probe(0)
	o.Reset()
	if o.Probes() != 0 || len(o.Order()) != 0 {
		t.Error("Reset did not clear the probe log")
	}
}

// dominated returns the family with the single quorum {0, 1} over three
// elements: intersecting, but dominated, so under some colorings neither
// color class contains a quorum.
func dominated(t *testing.T) *quorum.Explicit {
	t.Helper()
	e, err := quorum.NewExplicit("dom", 3, []*bitset.Set{bitset.FromSlice(3, []int{0, 1})})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStateOf pins the state rule: Green when the greens contain a
// quorum, else Red. On the dominated family {0, 1} one red element
// leaves no live quorum although the reds hold none either; the state is
// Red, and the red {0} is its witness.
func TestStateOf(t *testing.T) {
	sys := maj3(t)
	if state := StateOf(sys, coloring.FromReds(3, []int{0})); state != coloring.Green {
		t.Errorf("one red: state=%v, want green", state)
	}
	if state := StateOf(sys, coloring.FromReds(3, []int{0, 1})); state != coloring.Red {
		t.Errorf("two reds: state=%v, want red", state)
	}
	dom := dominated(t)
	col := coloring.FromReds(3, []int{0})
	if state := StateOf(dom, col); state != coloring.Red {
		t.Errorf("dominated, red {0}: state=%v, want red", state)
	}
	w := Witness{Color: coloring.Red, Set: bitset.FromSlice(3, []int{0})}
	if err := Verify(dom, w, col, nil); err != nil {
		t.Errorf("dominated, red {0}: the red transversal {0} fails Verify: %v", err)
	}
	if state := StateOf(dom, coloring.FromReds(3, []int{2})); state != coloring.Green {
		t.Errorf("dominated, red {2}: state=%v, want green", state)
	}
}

func TestVerifyAcceptsSoundWitness(t *testing.T) {
	sys := maj3(t)
	col := coloring.FromReds(3, []int{2})
	o := NewOracle(col)
	o.Probe(0)
	o.Probe(1)
	w := Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{0, 1})}
	if err := Verify(sys, w, col, o.Probed()); err != nil {
		t.Errorf("Verify = %v, want nil", err)
	}
	// Also valid without probe accounting.
	if err := Verify(sys, w, col, nil); err != nil {
		t.Errorf("Verify(nil probed) = %v, want nil", err)
	}
}

func TestVerifyRejections(t *testing.T) {
	sys := maj3(t)
	col := coloring.FromReds(3, []int{2})

	cases := []struct {
		name    string
		w       Witness
		probed  *bitset.Set
		wantErr error
	}{
		{
			name:    "nil set",
			w:       Witness{Color: coloring.Green},
			wantErr: ErrWitnessNotQuorum,
		},
		{
			name:    "not a quorum",
			w:       Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{0})},
			wantErr: ErrWitnessNotQuorum,
		},
		{
			name:    "wrong color",
			w:       Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{1, 2})},
			wantErr: ErrWitnessWrongColor,
		},
		{
			name:    "unprobed element",
			w:       Witness{Color: coloring.Green, Set: bitset.FromSlice(3, []int{0, 1})},
			probed:  bitset.FromSlice(3, []int{0}),
			wantErr: ErrWitnessUnprobed,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Verify(sys, c.w, col, c.probed); !errors.Is(err, c.wantErr) {
				t.Errorf("Verify = %v, want %v", err, c.wantErr)
			}
		})
	}
}

// TestVerifyWrongConclusion checks that Verify accepts no witness whose
// color differs from the true state: over every coloring of Maj3 and of
// the dominated family {0, 1}, every monochromatic set it accepts has the
// color StateOf names, and the state's own color class is accepted.
func TestVerifyWrongConclusion(t *testing.T) {
	for _, sys := range []*quorum.Explicit{maj3(t), dominated(t)} {
		n := sys.Size()
		coloring.All(n, func(col *coloring.Coloring) bool {
			state := StateOf(sys, col)
			class := col.MonochromaticSet(state)
			if err := Verify(sys, Witness{Color: state, Set: class}, col, nil); err != nil {
				t.Fatalf("%s %s: the %s class %v fails Verify: %v", sys.Name(), col, state, class, err)
			}
			for mask := uint64(0); mask < uint64(1)<<n; mask++ {
				set := quorum.SetOfMask(n, mask)
				for _, c := range []coloring.Color{coloring.Green, coloring.Red} {
					if !set.SubsetOf(col.MonochromaticSet(c)) {
						continue
					}
					if Verify(sys, Witness{Color: c, Set: set}, col, nil) == nil && c != state {
						t.Fatalf("%s %s: Verify accepts %s %v, true state %s", sys.Name(), col, c, set, state)
					}
				}
			}
			return true
		})
	}
}

func TestWitnessString(t *testing.T) {
	w := Witness{Color: coloring.Red, Set: bitset.FromSlice(3, []int{0, 2})}
	if got, want := w.String(), "red quorum {1, 3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
