// Package widthdual enforces the width-dispatch contract: every quorum
// system that declares a characteristic function must also speak the
// words protocol every hot path dispatches on, and bit arithmetic on word
// layouts belongs in internal/bitset.
package widthdual

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"

	"probequorum/internal/analysis/framework"
)

const doc = `check that declared quorum systems speak WideMaskSystem, and raw uint64 bit shifts

In internal/systems and internal/rw, a package-level type that declares
its own ContainsQuorum method (the bitset reference) without
implementing WideMaskSystem (ContainsQuorumWords over []uint64) misses
the fast predicate every hot path dispatches on; the analyzer flags the
type declaration. A ContainsQuorum promoted from an embedded field is not
declared by the type and is exempt. Everywhere outside internal/bitset it
also flags raw single-bit shifts — uint64-typed 1<<x with a non-constant
shift — which must go through bitset.Bit / bitset.LowMask so the word
layout has one owner.`

// Analyzer is the widthdual invariant check.
var Analyzer = &framework.Analyzer{
	Name: "widthdual",
	Doc:  doc,
	Run:  run,
}

func run(pass *framework.Pass) error {
	base := path.Base(pass.Pkg.Path())
	if base == "systems" || base == "rw" {
		checkWide(pass)
	}
	if base != "bitset" {
		checkShifts(pass)
	}
	return nil
}

// lookupInterface finds a package-scope interface by name in pkg.
func lookupInterface(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// wideInterface locates the WideMaskSystem interface visible to the
// package: declared locally or in a direct import.
func wideInterface(pkg *types.Package) *types.Interface {
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if w := lookupInterface(p, "WideMaskSystem"); w != nil {
			return w
		}
	}
	return nil
}

// declaresContainsQuorum reports whether the named type itself declares a
// ContainsQuorum method, on a value or pointer receiver; methods promoted
// from embedded fields are not among its declared methods.
func declaresContainsQuorum(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "ContainsQuorum" {
			return true
		}
	}
	return false
}

// checkWide reports package-level types that declare ContainsQuorum but
// do not implement WideMaskSystem.
func checkWide(pass *framework.Pass) {
	wide := wideInterface(pass.Pkg)
	if wide == nil {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) || !declaresContainsQuorum(named) {
			continue
		}
		// The pointer's method set includes the value's.
		if !types.Implements(types.NewPointer(named), wide) {
			pass.Reportf(tn.Pos(), "%s declares ContainsQuorum but does not implement WideMaskSystem: add ContainsQuorumWords so hot paths keep the fast predicate", name)
		}
	}
}

// checkShifts reports uint64-typed 1<<x with a non-constant shift
// amount outside internal/bitset.
func checkShifts(pass *framework.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.SHL {
				return true
			}
			tv, ok := pass.TypesInfo.Types[be]
			if !ok || tv.Type == nil {
				return true
			}
			basic, ok := tv.Type.Underlying().(*types.Basic)
			if !ok || basic.Kind() != types.Uint64 {
				return true
			}
			lhs := pass.TypesInfo.Types[be.X]
			if lhs.Value == nil || constant.Compare(lhs.Value, token.NEQ, constant.MakeInt64(1)) {
				return true
			}
			if rhs := pass.TypesInfo.Types[be.Y]; rhs.Value != nil {
				return true // constant shift: a fixed mask, not bit indexing
			}
			pass.Reportf(be.Pos(), "raw uint64 single-bit shift outside internal/bitset: use bitset.Bit / bitset.LowMask")
			return true
		})
	}
}
