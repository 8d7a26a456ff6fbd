package systems_test

import (
	"context"
	"reflect"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/systems"
)

// elements lists each set's 0-based elements, keeping the list order.
func elements(sets []*bitset.Set) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = s.Elements()
	}
	return out
}

// TestQuorumOrdersPinned pins the orders and sizes that Maj, Wheel and
// read-one/write-all must keep whichever implementation backs them:
// enumeration order, the quorum FindQuorumWithin picks from an allowed
// set, and the closed-form threshold, resilience and quorum sizes.
func TestQuorumOrdersPinned(t *testing.T) {
	maj, err := systems.NewMaj(5)
	if err != nil {
		t.Fatal(err)
	}
	wheel, err := systems.NewWheel(6)
	if err != nil {
		t.Fatal(err)
	}
	rowa, err := rw.ReadOneWriteAll(4)
	if err != nil {
		t.Fatal(err)
	}
	type find struct {
		name    string
		allowed []int
		want    []int // nil: no quorum inside allowed
	}
	cases := []struct {
		sys      quorum.System
		quorums  [][]int
		finds    []find
		min, max int
		// threshold is 0 for a system without a threshold.
		threshold  int
		resilience int
	}{
		{
			sys: maj,
			quorums: [][]int{
				{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 2, 3}, {0, 2, 4},
				{0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4},
			},
			finds: []find{
				{"hub only", []int{0}, nil},
				{"hub plus rim", []int{0, 2, 4}, []int{0, 2, 4}},
				{"full rim", []int{1, 2, 3, 4}, []int{1, 2, 3}},
				{"below threshold", []int{1, 3}, nil},
			},
			min: 3, max: 3, threshold: 3, resilience: 2,
		},
		{
			sys:     wheel,
			quorums: [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2, 3, 4, 5}},
			finds: []find{
				{"hub only", []int{0}, nil},
				{"hub plus rim", []int{0, 3, 5}, []int{0, 3}},
				{"full rim", []int{1, 2, 3, 4, 5}, []int{1, 2, 3, 4, 5}},
				{"below threshold", []int{2, 3, 4, 5}, nil},
			},
			min: 2, max: 5, resilience: 1,
		},
		{
			sys:     rowa.ReadRole(),
			quorums: [][]int{{0}, {1}, {2}, {3}},
			finds: []find{
				{"hub only", []int{0}, []int{0}},
				{"hub plus rim", []int{0, 2}, []int{0}},
				{"full rim", []int{1, 2, 3}, []int{1}},
				{"below threshold", nil, nil},
			},
			min: 1, max: 1, threshold: 1, resilience: 3,
		},
		{
			sys:     rowa.WriteRole(),
			quorums: [][]int{{0, 1, 2, 3}},
			finds: []find{
				{"hub only", []int{0}, nil},
				{"hub plus rim", []int{0, 1, 2, 3}, []int{0, 1, 2, 3}},
				{"full rim", []int{1, 2, 3}, nil},
				{"below threshold", []int{0, 1, 2}, nil},
			},
			min: 4, max: 4, threshold: 4, resilience: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.sys.Name(), func(t *testing.T) {
			n := tc.sys.Size()
			if got := elements(tc.sys.Quorums()); !reflect.DeepEqual(got, tc.quorums) {
				t.Errorf("Quorums() = %v, want %v", got, tc.quorums)
			}
			finder, ok := tc.sys.(quorum.Finder)
			if !ok {
				t.Fatal("not a quorum.Finder")
			}
			for _, f := range tc.finds {
				q, found := finder.FindQuorumWithin(bitset.FromSlice(n, f.allowed))
				var got []int
				if found {
					got = q.Elements()
				}
				if found != (f.want != nil) || !reflect.DeepEqual(got, f.want) {
					t.Errorf("%s: FindQuorumWithin(%v) = %v, %v; want %v", f.name, f.allowed, got, found, f.want)
				}
			}
			sized, ok := tc.sys.(quorum.Sized)
			if !ok {
				t.Fatal("not quorum.Sized")
			}
			if sized.MinQuorumSize() != tc.min || sized.MaxQuorumSize() != tc.max {
				t.Errorf("quorum sizes [%d, %d], want [%d, %d]", sized.MinQuorumSize(), sized.MaxQuorumSize(), tc.min, tc.max)
			}
			if tc.threshold > 0 {
				th, ok := tc.sys.(interface{ Threshold() int })
				if !ok || th.Threshold() != tc.threshold {
					t.Errorf("Threshold() missing or not %d", tc.threshold)
				}
			}
			res, err := rw.RoleResilience(context.Background(), tc.sys)
			if err != nil || res != tc.resilience {
				t.Errorf("resilience = %d, %v; want %d", res, err, tc.resilience)
			}
		})
	}
	if res, err := rw.Resilience(context.Background(), rowa); err != nil || res != 0 {
		t.Errorf("ROWA(4) resilience = %d, %v; want 0", res, err)
	}
}
