package probequorum

import (
	"context"
	"errors"
	"fmt"

	"probequorum/internal/store"
)

// Artifact kinds counted by the session's build/coalesce statistics.
// "table" is the dense witness table (the 2^n-bit artifact a stampede of
// cold queries would otherwise build N times over), "pc" and "ppc" the
// exact DP solves, "availpoly" the availability failure-count
// polynomial, "strategy" an optimized read/write strategy (quorum
// enumeration plus an LP solve, memoized per workload options) and
// "resilience" the crash-resilience scan.
const (
	artifactTable      = "table"
	artifactPC         = "pc"
	artifactPPC        = "ppc"
	artifactAvailPoly  = "availpoly"
	artifactStrategy   = "strategy"
	artifactResilience = "resilience"
)

// artifactKey names one artifact of one system: its kind, plus the
// failure probability of a "ppc" artifact and the options key
// (rw.Options.Key) of a "strategy" artifact. It is comparable, so a memo
// lookup builds no string.
type artifactKey struct {
	kind string
	p    float64
	opts string
}

// outcome is one completed artifact build: the value, or the permanent
// error in its place.
type outcome struct {
	val any
	err error
}

// storeCodec moves one artifact kind through the persistent store's
// typed record pair.
type storeCodec struct {
	get func(s *store.Store, kind, rec string) (any, bool)
	put func(s *store.Store, kind, rec string, val any) error
}

// codecOf adapts one typed Get/Put pair of the store.
func codecOf[T any](get func(*store.Store, string, string) (T, bool), put func(*store.Store, string, string, T) error) storeCodec {
	return storeCodec{
		get: func(s *store.Store, kind, rec string) (any, bool) { return get(s, kind, rec) },
		put: func(s *store.Store, kind, rec string, val any) error { return put(s, kind, rec, val.(T)) },
	}
}

// storeCodecs maps every artifact kind to its record pair in the store.
var storeCodecs = map[string]storeCodec{
	artifactTable:      codecOf((*store.Store).GetTable, (*store.Store).PutTable),
	artifactPC:         codecOf((*store.Store).GetInt, (*store.Store).PutInt),
	artifactPPC:        codecOf((*store.Store).GetFloat, (*store.Store).PutFloat),
	artifactAvailPoly:  codecOf((*store.Store).GetFloats, (*store.Store).PutFloats),
	artifactStrategy:   codecOf((*store.Store).GetStrategy, (*store.Store).PutStrategy),
	artifactResilience: codecOf((*store.Store).GetInt, (*store.Store).PutInt),
}

// record returns the key of the artifact's persistent record, or false
// when the store tier does not apply: no store attached, or no canonical
// spec (sharedSpec) — ad-hoc systems, Explicit ones included, are never
// persisted, because the key must identify the system in every process
// that shares the store directory. The key is the spec, extended by
// store.ParamKey for "ppc" and store.OptionsKey for "strategy".
func (e *Evaluator) record(ent *evalEntry, sys System, key artifactKey) (string, bool) {
	if e.artifacts == nil {
		return "", false
	}
	sp := ent.sharedSpec(sys)
	if sp == "" {
		return "", false
	}
	switch key.kind {
	case artifactPPC:
		return store.ParamKey(sp, key.p), true
	case artifactStrategy:
		return store.OptionsKey(sp, key.opts), true
	}
	return sp, true
}

// PanicError reports an evaluation that panicked — a third-party System
// whose ContainsQuorum or prober blows up, or a bug in a measure body.
// The panic is recovered at the query (or artifact-build) boundary and
// surfaced as this error, so one poisonous query degrades to a failed
// Result instead of taking down a serving process. Panics are never
// cached: a later query retries cleanly.
type PanicError struct {
	// Op names the computation that panicked, e.g. "table build".
	Op string
	// Value is the recovered panic value.
	Value any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("probequorum: %s panicked: %v", p.Op, p.Value)
}

// guardPanic runs fn on ctx, converting a panic into a *PanicError.
func guardPanic[T any](ctx context.Context, op string, fn func(context.Context) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Op: op, Value: r}
		}
	}()
	return fn(ctx)
}

// Cache tier names keyed in EvalStats.Hits and Misses. "memo" is the
// in-process session memo (the evalEntry memo), "approx" the
// approximate-answer cache (consulted only for queries that declare a
// tolerance), "store" the persistent on-disk artifact store. A tier
// that is not configured is never consulted and never counted.
const (
	tierMemo   = "memo"
	tierApprox = "approx"
	tierStore  = "store"
)

// EvalStats is a snapshot of the session's artifact-build accounting.
// Builds and Coalesced are keyed by artifact kind ("table", "pc",
// "ppc", "availpoly", "strategy", "resilience"): Builds counts DP/LP
// computations actually run — a single-flight leader that satisfies its
// waiters from the persistent store does not count a build — and
// Coalesced counts callers that found a build of the artifact they
// needed already in flight and shared its result instead of starting
// their own. Under a stampede of identical cold queries, Builds stays
// at 1 while Coalesced absorbs the rest; under a warm store, Builds
// stays flat entirely.
//
// Hits and Misses are keyed by cache tier ("memo", "approx", "store")
// and count consultations of each configured tier in lookup order:
// session memo first, then the approximate cache where the query's
// tolerance allows, then the persistent store, then compute.
type EvalStats struct {
	Builds    map[string]uint64 `json:"builds"`
	Coalesced map[string]uint64 `json:"coalesced"`
	Hits      map[string]uint64 `json:"hits"`
	Misses    map[string]uint64 `json:"misses"`
}

// Stats returns a snapshot of the session's build, coalescing and
// cache-tier counters. It is safe for concurrent use.
func (e *Evaluator) Stats() EvalStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return EvalStats{
		Builds:    copyCounts(e.buildCount),
		Coalesced: copyCounts(e.coalesceCount),
		Hits:      copyCounts(e.hitCount),
		Misses:    copyCounts(e.missCount),
	}
}

// copyCounts snapshots one counter map (never nil, so the JSON shape is
// stable: empty maps marshal as {}).
func copyCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// count bumps one stats counter.
func (e *Evaluator) count(m *map[string]uint64, kind string) {
	e.statsMu.Lock()
	if *m == nil {
		*m = map[string]uint64{}
	}
	(*m)[kind]++
	e.statsMu.Unlock()
}

// buildCall is one in-flight single-flight artifact build. waiters is
// guarded by the owning entry's mutex; everything else is written once
// by the build goroutine before done closes.
type buildCall struct {
	done chan struct{}
	outcome
	waiters int
	cancel  context.CancelFunc
}

// artifact is the session's one artifact path: memo → store → compute.
// A memoized outcome — the value or its permanent error — answers at
// once. Otherwise the call coalesces onto the single-flight build of
// the artifact: however many queries need it, exactly one build runs,
// and every caller — the leader that started it included — parks on a
// channel it abandons the moment its own context is done. The build
// itself runs on a context detached from any single request, cancelled
// only when the last interested waiter has walked away; a cancelled
// leader therefore hands the build over to the surviving followers
// instead of aborting it, and an abandoned build caches nothing, so the
// PR 3 invariant — cancellation never poisons a cache — holds with
// coalescing layered on.
//
// The memo tier's hit/miss counters are bumped on the first loop
// iteration only, so one logical call counts one consultation however
// many abandonment retries it takes.
func artifact[T any](ctx context.Context, e *Evaluator, sys System, key artifactKey, build func(context.Context) (T, error)) (T, error) {
	ent := e.entry(sys)
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return typed[T](outcome{err: err})
		}
		ent.mu.Lock()
		if o, ok := ent.memo[key]; ok {
			ent.mu.Unlock()
			if first {
				e.count(&e.hitCount, tierMemo)
			}
			return typed[T](o)
		}
		if first {
			e.count(&e.missCount, tierMemo)
		}
		call, inflight := ent.builds[key]
		if inflight {
			call.waiters++
			e.count(&e.coalesceCount, key.kind)
		} else {
			buildCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
			call = &buildCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
			if ent.builds == nil {
				ent.builds = map[artifactKey]*buildCall{}
			}
			ent.builds[key] = call
			go runBuild(buildCtx, e, ent, sys, key, call, build)
		}
		ent.mu.Unlock()

		select {
		case <-call.done:
			if isCtxErr(call.err) {
				// The build died of abandonment in the window between our
				// registration and its completion; our own context is
				// still live, so loop and start a fresh one.
				continue
			}
			return typed[T](call.outcome)
		case <-ctx.Done():
			ent.mu.Lock()
			call.waiters--
			abandoned := call.waiters == 0
			ent.mu.Unlock()
			if abandoned {
				call.cancel()
			}
			return typed[T](outcome{err: ctx.Err()})
		}
	}
}

// typed unboxes an outcome as its artifact's value type; a failed
// outcome answers the zero value.
func typed[T any](o outcome) (v T, err error) {
	if o.err == nil {
		v, _ = o.val.(T)
	}
	return v, o.err
}

// runBuild satisfies one detached single-flight artifact build and
// publishes its outcome. The persistent store, when it applies, is
// consulted before computing: a verified store record satisfies every
// waiter bit-identically with no build counted, which is what keeps a
// warm process's Builds flat. A computed value is persisted back only
// on success, after the memo publication (so disk latency never extends
// the entry lock) but before the waiters are released: every waiter
// waits for the write, and an answered artifact is already on disk for
// the next process.
//
// Values and permanent errors are memoized: every artifact is a pure
// function of (system, key), so a permanent error is as stable as a
// value. Cancellations (every waiter gone) and recovered panics are
// handed to the current waiters but never memoized, so the next query
// rebuilds cleanly.
func runBuild[T any](ctx context.Context, e *Evaluator, ent *evalEntry, sys System, key artifactKey, call *buildCall, build func(context.Context) (T, error)) {
	defer call.cancel()
	rec, persistent := e.record(ent, sys, key)
	codec := storeCodecs[key.kind]
	var o outcome
	fetched := false
	if persistent {
		if o.val, fetched = codec.get(e.artifacts, key.kind, rec); fetched {
			e.count(&e.hitCount, tierStore)
		} else {
			e.count(&e.missCount, tierStore)
		}
	}
	if !fetched {
		e.count(&e.buildCount, key.kind)
		v, err := guardPanic(ctx, key.kind+" build", build)
		o = outcome{val: v, err: err}
	}
	var pe *PanicError
	panicked := errors.As(o.err, &pe)
	ent.mu.Lock()
	delete(ent.builds, key)
	call.outcome = o
	if !isCtxErr(o.err) && !panicked {
		if ent.memo == nil {
			ent.memo = map[artifactKey]outcome{}
		}
		ent.memo[key] = o
	}
	ent.mu.Unlock()
	if persistent && !fetched && o.err == nil {
		// Put errors are dropped: the store is a cache, its own stats
		// count write failures, and the value is already published.
		_ = codec.put(e.artifacts, key.kind, rec, o.val)
	}
	close(call.done)
}
