// Package quorum mirrors the shape of probequorum/internal/quorum for
// the widthdual fixtures.
package quorum

type System interface {
	Size() int
	ContainsQuorum(set []bool) bool
}

type WideMaskSystem interface {
	System
	ContainsQuorumWords(words []uint64) bool
}
