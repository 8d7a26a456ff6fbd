package systems

import "probequorum/internal/quorum"

// Every construction implements quorum.WideMaskSystem natively: its
// characteristic function evaluated on a []uint64 element mask, so
// membership scales to quorum.MaxWideUniverse elements with no
// enumeration and a universe of at most 64 elements is a one-word slice.
// Choose (the Maj included) sums word popcounts, CW (the Triang and the
// Wheel included) tests each row against its precomputed word window,
// Tree and RecMaj (the HQS included) run their gate recursions over word
// bits, and Vote scans the set bits' weights. ContainsQuorum is the bitset reference
// these forms are pinned to (mask_test.go, widemask_test.go).
var (
	_ quorum.WideMaskSystem = (*Maj)(nil)
	_ quorum.WideMaskSystem = (*Wheel)(nil)
	_ quorum.WideMaskSystem = (*CW)(nil)
	_ quorum.WideMaskSystem = (*Tree)(nil)
	_ quorum.WideMaskSystem = (*HQS)(nil)
	_ quorum.WideMaskSystem = (*Vote)(nil)
	_ quorum.WideMaskSystem = (*RecMaj)(nil)
)
