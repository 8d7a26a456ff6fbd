package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"probequorum/internal/urn"
	"probequorum/internal/walk"
)

func TestMajPPC(t *testing.T) {
	// p = 1/2: n - θ(sqrt n); specifically (n+1) - 2 sqrt((n+1)/(2 pi)).
	n := 101
	got := MajPPC(n, 0.5)
	if got >= float64(n) || got < float64(n)-3*math.Sqrt(float64(n)) {
		t.Errorf("MajPPC(%d, 0.5) = %v outside [n - 3sqrt(n), n)", n, got)
	}
	// Biased: N/q.
	if got := MajPPC(9, 0.2); math.Abs(got-5/0.8) > 1e-12 {
		t.Errorf("MajPPC(9, 0.2) = %v, want 6.25", got)
	}
	// Symmetric in p, q.
	if a, b := MajPPC(9, 0.2), MajPPC(9, 0.8); math.Abs(a-b) > 1e-12 {
		t.Errorf("MajPPC asymmetric: %v vs %v", a, b)
	}
}

func TestSimpleBounds(t *testing.T) {
	if CWPPCUpper(5) != 9 {
		t.Errorf("CWPPCUpper(5) = %v", CWPPCUpper(5))
	}
	if WheelPPCUpper() != 3 {
		t.Errorf("WheelPPCUpper = %v", WheelPPCUpper())
	}
	if got := MajPCR(3); math.Abs(got-8.0/3.0) > 1e-12 {
		t.Errorf("MajPCR(3) = %v, want 8/3", got)
	}
	if got := TreePCRUpper(7); math.Abs(got-6) > 1e-12 {
		t.Errorf("TreePCRUpper(7) = %v, want 6", got)
	}
	if got := TreePCRLower(7); math.Abs(got-16.0/3.0) > 1e-12 {
		t.Errorf("TreePCRLower(7) = %v, want 16/3", got)
	}
	if got := WheelPCR(10); got != 9 {
		t.Errorf("WheelPCR(10) = %v", got)
	}
	if got := CWPCRLower(6, 3); got != 4.5 {
		t.Errorf("CWPCRLower(6,3) = %v", got)
	}
}

func TestExponents(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"TreePPCExponent(1/2)", TreePPCExponent(0.5), 0.585},
		{"HQSPPCExponentHalf", HQSPPCExponentHalf(), 0.834},
		{"HQSPPCExponentBiased", HQSPPCExponentBiased(), 0.631},
		{"HQSRExponent", HQSRExponent(), 0.893},
		{"HQSIRExponentPaper", HQSIRExponentPaper(), 0.887},
		{"HQSIRExponentFaithful", HQSIRExponentFaithful(), 0.890},
		{"HQSPCRLowerExponent", HQSPCRLowerExponent(), 0.834},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 0.0015 {
			t.Errorf("%s = %.4f, want ~%.3f", c.name, c.got, c.want)
		}
	}
	// The improved algorithm's exponent lands strictly between the lower
	// bound and plain R_Probe_HQS.
	if !(HQSPCRLowerExponent() < HQSIRExponentPaper() && HQSIRExponentPaper() < HQSRExponent()) {
		t.Error("exponent ordering violated")
	}
}

func TestTreePPCExponentSymmetry(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.4} {
		if a, b := TreePPCExponent(p), TreePPCExponent(1-p); math.Abs(a-b) > 1e-12 {
			t.Errorf("p=%v: %v vs %v", p, a, b)
		}
	}
}

func TestCWPCRUpper(t *testing.T) {
	// Wheel as (1, n-1)-CW: the maximum is row 2 itself: n-1... the
	// formula gives max(1 + (n/2 + 1/(n-1)), n-1).
	widths := []int{1, 9} // n = 10
	got := CWPCRUpper(widths)
	rowTwo := 9.0
	rowOne := 1 + (9.0+1)/2 + 1.0/9
	want := math.Max(rowOne, rowTwo)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CWPCRUpper = %v, want %v", got, want)
	}
	// Coarse bound dominates the tight one.
	n, k, m := 10, 2, 9
	if CWPCRUpperCoarse(n, k, m) < got {
		t.Error("coarse bound below tight bound")
	}
}

func TestTriangPCRUpper(t *testing.T) {
	// Corollary 4.5: (n+k)/2 + log k.
	if got, want := TriangPCRUpper(10, 4), 7.0+math.Log2(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("TriangPCRUpper(10,4) = %v, want %v", got, want)
	}
}

// Lemma 2.5: the closed-form bound dominates the exact product.
func TestProductBound(t *testing.T) {
	f := func(seed int64) bool {
		// Derive bounded parameters from the seed.
		s := uint64(seed)
		a := 1 + float64(s%5)       // 1..5
		c := 0.1 + float64(s%7)/2   // 0.1..3.1
		b := 0.1 + float64(s%8)*0.1 // 0.1..0.8
		h := int(s%10) + 1          // 1..10
		return Product(a, c, b, h) <= ProductBound(a, c, b, h)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUrnAndWalkFormulas(t *testing.T) {
	if got := urn.ExpectedJthRed(3, 5, 2); math.Abs(got-2*9.0/4.0) > 1e-12 {
		t.Errorf("urn.ExpectedJthRed(3,5,2) = %v", got)
	}
	if got := urn.ExpectedBothColors(1, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("urn.ExpectedBothColors(1,1) = %v", got)
	}
	if got := walk.Asymptotic(100, 0.25); math.Abs(got-100/0.75) > 1e-12 {
		t.Errorf("walk.Asymptotic(100, 0.25) = %v", got)
	}
	if got := walk.Asymptotic(100, 0.5); got >= 200 || got < 180 {
		t.Errorf("walk.Asymptotic(100, 0.5) = %v out of range", got)
	}
}

// The growth constants are ordered: lower bound < improved < plain.
func TestHQSGrowthConstants(t *testing.T) {
	perTwoLevelsPlain := HQSRGrowth * HQSRGrowth // (8/3)^2 = 192/27
	if !(HQSIRGrowthPaper < HQSIRGrowthFaithful && HQSIRGrowthFaithful < perTwoLevelsPlain) {
		t.Errorf("growth ordering violated: %v, %v, %v",
			HQSIRGrowthPaper, HQSIRGrowthFaithful, perTwoLevelsPlain)
	}
	if math.Abs(HQSIRGrowthFaithful-191.0/27.0) > 1e-12 {
		t.Errorf("faithful constant = %v", HQSIRGrowthFaithful)
	}
}
