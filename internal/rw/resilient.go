package rw

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// MaxResilientUniverse bounds the f-resilient quorum computation: the
// dynamic program materializes f+1 characteristic bitmaps of 2^n bits
// and sweeps each n times.
const MaxResilientUniverse = 20

// ResilientQuorums returns the minimal f-resilient quorums of the
// system: the inclusion-minimal sets X such that X minus ANY f of its
// elements still contains a quorum. A strategy supported on these keeps
// a live quorum through every pattern of f crashes. f = 0 degenerates
// to the minimal quorums themselves.
//
// The computation is a mask dynamic program over the witness table:
// with R_0(X) = "X contains a quorum", R_k(X) = AND over x in X of
// R_{k-1}(X \ {x}), the f-resilient sets are exactly {X : R_f(X)}, and
// the minimal ones are those none of whose children remain f-resilient.
// It is bounded by MaxResilientUniverse and the enumeration budget.
func ResilientQuorums(ctx context.Context, sys quorum.System, f int) ([]*bitset.Set, error) {
	if f < 0 {
		return nil, fmt.Errorf("rw: negative resilience requirement f=%d", f)
	}
	if f == 0 {
		return quorum.EnumerateQuorums(sys)
	}
	n := sys.Size()
	if n > MaxResilientUniverse {
		return nil, &quorum.BoundError{Op: "rw: f-resilient quorums", N: n, Max: MaxResilientUniverse}
	}
	table, err := quorum.BuildWitnessTableCtx(ctx, sys)
	if err != nil {
		return nil, err
	}
	size := bitset.Pow2(n)
	cur := make([]bool, size)
	for m := uint64(0); m < size; m++ {
		cur[m] = table.Contains(m)
	}
	next := make([]bool, size)
	for k := 0; k < f; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for m := uint64(0); m < size; m++ {
			ok := m != 0
			for rest := m; ok && rest != 0; rest &= rest - 1 {
				ok = cur[m&^(rest&-rest)]
			}
			next[m] = ok
		}
		cur, next = next, cur
	}
	var out []*bitset.Set
	for m := uint64(0); m < size; m++ {
		if !cur[m] {
			continue
		}
		minimal := true
		for rest := m; minimal && rest != 0; rest &= rest - 1 {
			minimal = !cur[m&^(rest&-rest)]
		}
		if minimal {
			if len(out) >= quorum.EnumerationBudget {
				return nil, &quorum.BudgetError{Name: sys.Name(), Count: len(out) + 1, Budget: quorum.EnumerationBudget}
			}
			out = append(out, quorum.SetOfMask(n, m))
		}
	}
	return out, nil
}

// Resilience returns the crash resilience of a read/write system: the
// largest f such that after ANY f failures both a read and a write
// quorum survive — min of the two role resiliences. Pairs whose roles
// know their resilience in closed form (grids, thresholds, Maj wraps)
// answer immediately at any universe size; otherwise each role is
// scanned through its witness table (n <= quorum.MaxTableUniverse).
func Resilience(ctx context.Context, sys quorum.System) (int, error) {
	if p, ok := sys.(*Pair); ok && p.resilience >= 0 {
		return p.resilience, nil
	}
	rwv := As(sys)
	rr, err := RoleResilience(ctx, rwv.ReadRole())
	if err != nil {
		return 0, fmt.Errorf("read role: %w", err)
	}
	if sameRole(rwv.ReadRole(), rwv.WriteRole()) {
		return rr, nil
	}
	wr, err := RoleResilience(ctx, rwv.WriteRole())
	if err != nil {
		return 0, fmt.Errorf("write role: %w", err)
	}
	return min(rr, wr), nil
}

// RoleResilience returns the crash resilience of one role: n - M - 1,
// where M is the size of the largest subset containing no quorum — any
// f <= n-M-1 failures leave more than M elements alive, hence a quorum.
// Systems with the ExactResilience capability answer in closed form;
// the generic path scans the witness table.
func RoleResilience(ctx context.Context, sys quorum.System) (int, error) {
	if er, ok := sys.(quorum.ExactResilience); ok {
		return er.Resilience(), nil
	}
	n := sys.Size()
	table, err := quorum.BuildWitnessTableCtx(ctx, sys)
	if err != nil {
		var be *quorum.BoundError
		if errors.As(err, &be) {
			return 0, &quorum.BoundError{Op: "rw: resilience", N: be.N, Max: be.Max}
		}
		return 0, err
	}
	largestDead := 0
	for m := uint64(0); m < bitset.Pow2(n); m++ {
		if m&0xFFFF == 0 && ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if !table.Contains(m) {
			if c := bits.OnesCount64(m); c > largestDead {
				largestDead = c
			}
		}
	}
	return n - largestDead - 1, nil
}
