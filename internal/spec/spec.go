// Package spec is the construction registry of the library: it parses
// declarative spec strings ("maj:13", "cw:1,3,2", "triang:5", "tree:3",
// "hqs:2", "vote:3,1,1,1,1", "recmaj:3x2", "wheel:8") into quorum
// systems, and lets additional constructions register their own builders
// so commands, experiments and services build systems from one
// configuration syntax. Read/write pairs extend the grammar: "rw:maj:9"
// self-pairs any registered construction (the cut is at the first ':',
// so the inner spec nests verbatim), "rowa:9" is read-one/write-all,
// and "grid:3x3" pairs row reads with transversal writes.
//
// Every built-in construction also implements quorum.Specced, so specs
// round-trip: Parse(s).(quorum.Specced).Spec() is the canonical form of
// s. Explicit systems are defined by their full quorum list and cannot be
// rebuilt from a string; Parse("explicit:...") returns a descriptive
// error directing callers to quorum.NewExplicit.
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/systems"
)

// Builder constructs a system from the argument part of a spec string
// (everything after the first ':').
type Builder func(arg string) (quorum.System, error)

var (
	mu       sync.RWMutex
	registry = map[string]Builder{}
)

// Register adds a construction to the registry under the given name
// (lower-case, no ':'). It panics on duplicate or malformed names, which
// indicates a programming error at init time.
func Register(name string, build Builder) {
	if name == "" || strings.ContainsAny(name, ": \t\n") || name != strings.ToLower(name) {
		panic(fmt.Sprintf("spec: invalid construction name %q", name))
	}
	if build == nil {
		panic(fmt.Sprintf("spec: nil builder for %q", name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("spec: construction %q registered twice", name))
	}
	registry[name] = build
}

// Names returns the registered construction names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse builds a system from a spec string of the form "name:args".
// Whitespace around the name and argument list is ignored and the name is
// case-insensitive.
func Parse(s string) (quorum.System, error) {
	name, arg, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("spec: %q has no ':'; want name:args, e.g. %q", s, "maj:7")
	}
	name = strings.ToLower(strings.TrimSpace(name))
	mu.RLock()
	build, found := registry[name]
	mu.RUnlock()
	if !found {
		return nil, fmt.Errorf("spec: unknown construction %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	sys, err := build(strings.TrimSpace(arg))
	if err != nil {
		return nil, fmt.Errorf("spec: %q: %w", s, err)
	}
	if n := sys.Size(); n > quorum.MaxWideUniverse {
		return nil, fmt.Errorf("spec: %q: %w", s, &quorum.BoundError{
			Op: "the mask engine", N: n, Max: quorum.MaxWideUniverse,
		})
	}
	return sys, nil
}

// MustParse is Parse for statically known specs; it panics on error.
func MustParse(s string) quorum.System {
	sys, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sys
}

// Of returns the canonical spec string of the system via the
// quorum.Specced capability, and whether the system has one. A Specced
// system reporting an empty spec (an ad-hoc pair with no registry
// grammar) counts as having none, so empty strings never become
// canonical cache keys.
func Of(sys quorum.System) (string, bool) {
	sp, ok := sys.(quorum.Specced)
	if !ok {
		return "", false
	}
	s := sp.Spec()
	return s, s != ""
}

// Canonical returns the spec of sys when the spec identifies the system
// wherever it is read: Parse rebuilds it into a system reporting the same
// spec. Only such a spec may key a cache shared across sessions or
// processes. A display-only spec fails: an Explicit's "explicit:<name>"
// names no quorums, so two different systems can report it, and Parse
// refuses it.
func Canonical(sys quorum.System) (string, bool) {
	s, ok := Of(sys)
	if !ok {
		return "", false
	}
	rebuilt, err := Parse(s)
	if err != nil {
		return "", false
	}
	r, ok := Of(rebuilt)
	return s, ok && r == s
}

// parseInt parses a single integer argument.
func parseInt(arg, what string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want an integer", what, arg)
	}
	return v, nil
}

// parseInts parses a comma-separated integer list.
func parseInts(arg, what string) ([]int, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, fmt.Errorf("empty %s list", what)
	}
	parts := strings.Split(arg, ",")
	out := make([]int, len(parts))
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: want comma-separated integers", what, part)
		}
		out[i] = v
	}
	return out, nil
}

// The built-in constructions, one registration per spec form.
func init() {
	Register("maj", func(arg string) (quorum.System, error) {
		n, err := parseInt(arg, "universe size")
		if err != nil {
			return nil, err
		}
		return systems.NewMaj(n)
	})
	Register("wheel", func(arg string) (quorum.System, error) {
		n, err := parseInt(arg, "universe size")
		if err != nil {
			return nil, err
		}
		return systems.NewWheel(n)
	})
	Register("cw", func(arg string) (quorum.System, error) {
		widths, err := parseInts(arg, "row width")
		if err != nil {
			return nil, err
		}
		return systems.NewCW(widths)
	})
	Register("triang", func(arg string) (quorum.System, error) {
		k, err := parseInt(arg, "row count")
		if err != nil {
			return nil, err
		}
		return systems.NewTriang(k)
	})
	Register("tree", func(arg string) (quorum.System, error) {
		h, err := parseInt(arg, "height")
		if err != nil {
			return nil, err
		}
		return systems.NewTree(h)
	})
	Register("hqs", func(arg string) (quorum.System, error) {
		h, err := parseInt(arg, "height")
		if err != nil {
			return nil, err
		}
		return systems.NewHQS(h)
	})
	Register("vote", func(arg string) (quorum.System, error) {
		weights, err := parseInts(arg, "weight")
		if err != nil {
			return nil, err
		}
		return systems.NewVote(weights)
	})
	Register("recmaj", func(arg string) (quorum.System, error) {
		mPart, hPart, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("bad recmaj argument %q: want ARITYxHEIGHT, e.g. %q", arg, "3x2")
		}
		m, err := parseInt(mPart, "arity")
		if err != nil {
			return nil, err
		}
		h, err := parseInt(hPart, "height")
		if err != nil {
			return nil, err
		}
		return systems.NewRecMaj(m, h)
	})
	Register("explicit", func(arg string) (quorum.System, error) {
		return nil, fmt.Errorf("explicit systems are defined by their full quorum list and cannot be built from a spec; use quorum.NewExplicit")
	})
	// Read/write pairs: "rw:<inner spec>" self-pairs any registered
	// construction (Parse cuts at the FIRST ':', so the whole inner spec
	// arrives as the argument), "rowa:N" is read-one/write-all, and
	// "grid:RxC" pairs full-row reads with one-per-row write
	// transversals.
	Register("rw", func(arg string) (quorum.System, error) {
		inner, err := Parse(arg)
		if err != nil {
			return nil, err
		}
		return rw.FromSingle(inner), nil
	})
	Register("rowa", func(arg string) (quorum.System, error) {
		n, err := parseInt(arg, "universe size")
		if err != nil {
			return nil, err
		}
		return rw.ReadOneWriteAll(n)
	})
	Register("grid", func(arg string) (quorum.System, error) {
		rPart, cPart, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("bad grid argument %q: want ROWSxCOLS, e.g. %q", arg, "3x3")
		}
		r, err := parseInt(rPart, "row count")
		if err != nil {
			return nil, err
		}
		c, err := parseInt(cPart, "column count")
		if err != nil {
			return nil, err
		}
		return rw.Grid(r, c)
	})
}
