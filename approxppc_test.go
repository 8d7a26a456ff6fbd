package probequorum

import (
	"context"
	"math"
	"testing"

	"probequorum/internal/quorum"
	"probequorum/internal/spec"
)

// registryInstances maps every registered construction form to instances
// with n <= 13. Explicit systems have no spec, and "third" is the
// third-party form TestThirdPartyProberPlugsIn registers in this binary.
var registryInstances = map[string][]string{
	"third":    nil,
	"maj":      {"maj:3", "maj:5", "maj:7", "maj:9", "maj:11", "maj:13"},
	"wheel":    {"wheel:4", "wheel:8", "wheel:12"},
	"cw":       {"cw:1,2", "cw:1,3,2", "cw:1,2,2,2,2", "cw:1,2,3,4"},
	"triang":   {"triang:2", "triang:3", "triang:4"},
	"tree":     {"tree:1", "tree:2"},
	"hqs":      {"hqs:1", "hqs:2"},
	"vote":     {"vote:3,1,1,2", "vote:2,2,1,1,1", "vote:3,3,2,2,1,1,1"},
	"recmaj":   {"recmaj:5x1", "recmaj:3x2"},
	"rw":       {"rw:maj:9", "rw:wheel:7"},
	"rowa":     {"rowa:5"},
	"grid":     {"grid:2x3", "grid:3x3", "grid:2x4"},
	"explicit": nil,
}

// registrySpecs lists registryInstances in registry order, failing when
// a registered form has no entry.
func registrySpecs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range spec.Names() {
		insts, ok := registryInstances[name]
		if !ok {
			t.Fatalf("registered construction %q has no instances in registryInstances", name)
		}
		out = append(out, insts...)
	}
	return out
}

// approxBrackets are the exact samples (p0, p1) the approx check seeds
// and the point p inside them it asks for: brackets inside one half of
// [0, 1], and two around 1/2, where an ND coterie's ppc peaks.
var approxBrackets = []struct{ p0, p1, p float64 }{
	{0.1, 0.3, 0.2},
	{0.05, 0.45, 0.17},
	{0.3, 0.5, 0.41},
	{0.5, 0.9, 0.6},
	{0.3, 0.7, 0.5},
	{0.2, 0.8, 0.41},
}

// TestApproxPPCWithinBound checks the approx tier's ppc answers against a
// tier-free session on every registered construction with n <= 13: each
// served value lies within its stated bound of the exact one, and
// brackets around 1/2 and systems that are not ND coteries (whose ppc
// need not be monotone on either half; grid:3x3's peaks at p = 0.41) are
// answered exactly.
func TestApproxPPCWithinBound(t *testing.T) {
	ctx := context.Background()
	ref := NewEvaluator()
	served := 0
	for _, sp := range registrySpecs(t) {
		sys := MustParse(sp)
		if sys.Size() > 13 {
			t.Fatalf("%s: n = %d, want <= 13", sp, sys.Size())
		}
		nd := quorum.CheckND(sys) == nil
		for _, b := range approxBrackets {
			e := NewEvaluator(WithApprox(NewApproxCache()))
			if _, err := e.Do(ctx, Query{Spec: sp, Measures: []Measure{MeasurePPC}, Ps: []float64{b.p0, b.p1}}); err != nil {
				t.Fatal(err)
			}
			res, err := e.Do(ctx, Query{Spec: sp, Measures: []Measure{MeasurePPC}, Ps: []float64{b.p}, Tolerance: 100})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := ref.AverageProbeComplexity(sys, b.p)
			if err != nil {
				t.Fatal(err)
			}
			pt := res.Point(b.p)
			got := *pt.PPC
			if len(pt.Approx) == 0 {
				if got != exact {
					t.Errorf("%s ppc(%v) from [%v, %v]: exact answer %v, tier-free %v", sp, b.p, b.p0, b.p1, got, exact)
				}
				continue
			}
			served++
			if !nd || b.p0 < 0.5 && 0.5 < b.p1 {
				t.Errorf("%s ppc(%v) from [%v, %v] served approximately (ND %v)", sp, b.p, b.p0, b.p1, nd)
			}
			if bound := pt.Approx[0].Bound; math.Abs(got-exact) > bound {
				t.Errorf("%s ppc(%v) from [%v, %v]: served %v, exact %v, error %v > bound %v",
					sp, b.p, b.p0, b.p1, got, exact, math.Abs(got-exact), bound)
			}
		}
	}
	if served == 0 {
		t.Fatal("no ppc was served approximately; the test checks no bound")
	}
}
