// Package systems implements the nondominated coterie families analyzed in
// Hassin & Peleg, "Average probe complexity in quorum systems" (§2.2):
//
//   - Maj:   the majority system of Thomas [18] — all sets of (n+1)/2
//     elements over an odd-size universe. It is the threshold family
//     Choose((n+1)/2 of n), which it embeds; Choose also gives
//     read-one/write-all (internal/rw) its Choose(1 of n) reads and
//     Choose(n of n) writes. Probe_Maj, the closed forms and the drawing
//     are Maj's own.
//   - Wheel: the wheel system of Holzman, Marcus & Peleg [6] — a hub paired
//     with any rim element, or the entire rim. It is the (1, n-1)-CW, which
//     it embeds; the hub-first strategy, the closed forms and the drawing
//     are the Wheel's own.
//   - CW:    the crumbling walls family of Peleg & Wool [14] — a full row
//     plus one representative from every row below it; includes the Triang
//     subfamily (row i has width i) and the Wheel as (1, n-1)-CW.
//   - Tree:  the tree system of Agrawal & El-Abbadi [1] — recursively, the
//     root plus a quorum of one subtree, or quorums of both subtrees.
//   - HQS:   the hierarchical quorum system of Kumar [8] — minterms of a
//     complete ternary tree of 2-of-3 majority gates over the leaves. It is
//     RecMaj(3, h), the arity-3 case of the recursive majority extension,
//     which it embeds; only IR_Probe_HQS and the Theorem 3.8 closed forms
//     are its own.
//
// Every construction offers structural (enumeration-free) evaluation of the
// characteristic function, quorum search inside an allowed set, and — for
// small universes — explicit minimal-quorum enumeration used by the tests
// to cross-validate the structural code.
//
// Elements are 0-based internally; renderers translate to the paper's
// 1-based convention.
package systems
