// Package systems exercises both widthdual checks: types declaring
// ContainsQuorum with and without the words form, and raw single-bit
// shifts.
package systems

import "quorum"

type Narrow struct{ n int } // want "Narrow declares ContainsQuorum but does not implement WideMaskSystem"

func (s Narrow) Size() int                      { return s.n }
func (s Narrow) ContainsQuorum(set []bool) bool { return len(set) > 0 }

type Dual struct{ n int }

func (s Dual) Size() int                               { return s.n }
func (s Dual) ContainsQuorum(set []bool) bool          { return len(set) > 0 }
func (s Dual) ContainsQuorumWords(words []uint64) bool { return len(words) > 0 }

type PtrDual struct{ n int }

func (s *PtrDual) Size() int                               { return s.n }
func (s *PtrDual) ContainsQuorum(set []bool) bool          { return len(set) > 0 }
func (s *PtrDual) ContainsQuorumWords(words []uint64) bool { return len(words) > 0 }

// Promoted's ContainsQuorum comes from the embedded interface, so the type
// declares none and is exempt.
type Promoted struct{ quorum.System }

func (p Promoted) Role() quorum.System { return p.System }

var _ quorum.System = Narrow{}
var _ quorum.WideMaskSystem = Dual{}
var _ quorum.WideMaskSystem = (*PtrDual)(nil)
var _ quorum.System = Promoted{}

func bitOps(e int, words []uint64) uint64 {
	m := uint64(1) << uint(e)          // want "raw uint64 single-bit shift outside internal/bitset"
	words[e/64] |= 1 << (uint(e) % 64) // want "raw uint64 single-bit shift outside internal/bitset"
	full := uint64(1)<<uint(e) - 1     // want "raw uint64 single-bit shift outside internal/bitset"
	const fixed = uint64(1) << 20      // constant shift amount: not flagged
	suppressed := uint64(1) << uint(e) //quorumvet:ignore widthdual fixture proves justified suppressions hold
	return m | full | fixed | suppressed
}
