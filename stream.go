package probequorum

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"probequorum/internal/des"
	"probequorum/internal/render"
	"probequorum/internal/sim"
	"probequorum/internal/stats"
)

// Cell is the incremental unit of evaluation: one (query, measure, grid
// point) value, delivered as soon as it is known. Streams emit three
// kinds of cell, distinguishable without extra framing:
//
//   - a header cell (empty Measure, empty Err) opens each query and
//     carries its identity — Spec, Name, N, and the effective Monte
//     Carlo Trials/Seed when an estimate is requested;
//   - data cells carry one measure value; per-p measures set P and Point
//     (the grid index), estimates additionally stream progress cells
//     (Done false) with the running mean, trials so far and confidence
//     interval before the final Done cell;
//   - an error cell (Err set, Done true) ends a failed query.
//
// The JSON encoding of a Cell is the frame payload of the probeserved
// /v1/stream NDJSON protocol. Cells of one stream arrive in a canonical
// deterministic order — queries by index; within a query the header,
// then pc, then tree, then resilience, then the Ps grid points in order
// with ppc, availability, expected, estimate, timed-ttq, timed-reach,
// timed-inflight at each, then the
// ReadFractions grid points in order with load and capacity at each —
// regardless of parallelism or scheduling, so folding a stream is
// reproducible byte for byte.
type Cell struct {
	// Query is the index of the originating query in the submitted batch
	// (0 for single-query streams).
	Query int `json:"query"`
	// Spec is the canonical spec of the evaluated system.
	Spec string `json:"spec,omitempty"`
	// Name and N identify the system on the header cell.
	Name string `json:"name,omitempty"`
	N    int    `json:"n,omitempty"`
	// Measure names the quantity this cell carries; empty on header and
	// error cells.
	Measure Measure `json:"measure,omitempty"`
	// P is the grid point of a per-p measure (nil for pc and tree), and
	// Point its index in the query's grid.
	P     *float64 `json:"p,omitempty"`
	Point int      `json:"point,omitempty"`
	// ReadFraction is the grid point of a planner measure (load,
	// capacity); Point is then its index in the query's ReadFractions
	// grid. Nil on every other cell.
	ReadFraction *float64 `json:"read_fraction,omitempty"`
	// Value is the measure value so far: the final value on a Done cell,
	// the running mean on an estimate progress cell. For pc it is the
	// probe complexity, for tree the tree depth.
	Value float64 `json:"value"`
	// Trials, StdErr and HalfCI describe an estimate cell: trials
	// accumulated so far, the standard error of the running mean and the
	// 95% confidence half-interval. The header cell reuses Trials and
	// Seed for the query's effective Monte Carlo settings.
	Trials int     `json:"trials,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	StdErr float64 `json:"stderr,omitempty"`
	HalfCI float64 `json:"half_ci,omitempty"`
	// Tree is the strategy-tree summary of a tree cell.
	Tree *TreeSummary `json:"tree,omitempty"`
	// Timed is the full timed-run aggregate carried by every timed
	// measure cell (the cell's Value holds that measure's headline
	// number: TTQ mean, reach fraction, or mean in-flight).
	Timed *TimedSummary `json:"timed,omitempty"`
	// Approx marks a Done cell served by the approximate-answer cache
	// within the query's Tolerance; the note carries the guaranteed
	// error bound. Nil on every exactly-computed cell.
	Approx *ApproxNote `json:"approx,omitempty"`
	// Degraded marks a Done cell whose exact solve ran out of the query's
	// deadline budget: the note names the measure and reason, and carries
	// the Monte Carlo substitute (also mirrored in Value/Trials/HalfCI)
	// where one exists. The exact value is absent from the folded Result.
	Degraded *Degradation `json:"degraded,omitempty"`
	// Done marks the cell final for its (measure, point); progress cells
	// are refined by later cells of the same coordinates.
	Done bool `json:"done"`
	// Err reports a failed query; the cell is terminal for that query.
	Err string `json:"error,omitempty"`
}

// streamChanBuffer is the per-query cell buffer of a batch stream: deep
// enough that a producing worker rarely blocks on a consumer that is
// still draining an earlier query.
const streamChanBuffer = 64

// minAdaptiveTrials is the smallest prefix a tolerance check may stop
// at: below it the variance estimate of the running mean is too noisy to
// trust a confidence-interval target.
const minAdaptiveTrials = 256

// errStreamStopped is the internal signal that the stream consumer broke
// out of the iteration; producers unwind without treating it as a query
// failure.
var errStreamStopped = errors.New("probequorum: stream consumer stopped")

// Stream executes one Query and returns its cells as an iterator, each
// yielded as soon as the underlying measure (or, for estimates, trial
// chunk) completes. The terminal pair of a failed stream carries a
// non-nil error alongside an error cell; a successful stream ends after
// its last Done cell. Cancelling ctx ends the stream with ctx.Err() and
// leaves every session cache as if the query never ran.
//
// Cell order is deterministic given (Query, session settings) — see
// Cell. Do is exactly FoldCells over this stream.
func (e *Evaluator) Stream(ctx context.Context, q Query) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		cont := true
		err := e.streamOne(ctx, 0, q, func(c Cell) bool {
			cont = yield(c, nil)
			return cont
		})
		if err != nil && !errors.Is(err, errStreamStopped) && cont {
			yield(Cell{Query: 0, Spec: q.Spec, Err: err.Error(), Done: true}, err)
		}
	}
}

// StreamBatch executes the queries in parallel over the session's shared
// caches — the same fan-out as DoBatch — and merges their cells into one
// iterator in deterministic order: all cells of query 0 first (streamed
// live while later queries compute in the background), then query 1, and
// so on. A query that fails for its own reasons contributes a terminal
// error cell and does not disturb its batch mates; cancelling ctx ends
// the whole stream with a terminal non-nil error. DoBatch is exactly
// FoldCells over this stream.
func (e *Evaluator) StreamBatch(ctx context.Context, queries []Query) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		if len(queries) == 0 {
			return
		}
		if err := ctx.Err(); err != nil {
			yield(Cell{}, err)
			return
		}
		workers := e.parallelism
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(queries) {
			workers = len(queries)
		}
		if workers == 1 {
			// One worker computes in emission order anyway: stream each
			// query directly, skipping the channel fan-out. Cell order —
			// and every stopping decision — is identical to the parallel
			// path by the determinism contract.
			for i, q := range queries {
				stopped := false
				err := e.streamOne(ctx, i, q, func(c Cell) bool {
					stopped = !yield(c, nil)
					return !stopped
				})
				switch {
				case stopped:
					return
				case err == nil:
				case isCtxErr(err):
					if cerr := ctx.Err(); cerr != nil {
						yield(Cell{}, cerr)
						return
					}
				default:
					if !yield(Cell{Query: i, Spec: q.Spec, Err: err.Error(), Done: true}, nil) {
						return
					}
				}
			}
			return
		}

		// Producers claim queries in index order and write cells to
		// per-query buffered channels; the consumer drains the channels
		// in index order, so emission is deterministic while computation
		// races ahead. streamCtx aborts producers when the consumer
		// breaks or ctx is cancelled; a producer blocked on a full
		// buffer unblocks through the same select.
		streamCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		cells := make([]chan Cell, len(queries))
		errs := make([]error, len(queries))
		for i := range cells {
			cells[i] = make(chan Cell, streamChanBuffer)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(queries) || streamCtx.Err() != nil {
						return
					}
					errs[i] = e.streamOne(streamCtx, i, queries[i], func(c Cell) bool {
						select {
						case cells[i] <- c:
							return true
						case <-streamCtx.Done():
							return false
						}
					})
					close(cells[i])
				}
			}()
		}
		defer wg.Wait()

		for i := range queries {
		drain:
			for {
				select {
				case c, ok := <-cells[i]:
					if !ok {
						break drain
					}
					if !yield(c, nil) {
						cancel()
						return
					}
				case <-streamCtx.Done():
					// Producers are unwinding; surface the caller's
					// cancellation as the terminal error.
					if err := ctx.Err(); err != nil {
						yield(Cell{}, err)
					}
					return
				}
			}
			err := errs[i]
			switch {
			case err == nil || errors.Is(err, errStreamStopped):
			case isCtxErr(err):
				if cerr := ctx.Err(); cerr != nil {
					yield(Cell{}, cerr)
					return
				}
			default:
				if !yield(Cell{Query: i, Spec: queries[i].Spec, Err: err.Error(), Done: true}, nil) {
					cancel()
					return
				}
			}
		}
	}
}

// FoldCells folds a cell stream back into per-query Results — the single
// evaluation path shared by Do, DoBatch and remote consumers of
// /v1/stream: folding a stream reproduces what /v1/eval would have
// answered for the same queries, bit for bit. n is the query count of
// the originating batch. A terminal non-nil error aborts the fold and is
// returned as-is; per-query error cells land in Result.Error, replacing
// any partial cells of that query exactly as DoBatch reports failures.
// Progress cells (Done false) refine nothing and are skipped.
func FoldCells(cells iter.Seq2[Cell, error], n int) ([]*Result, error) {
	results := make([]*Result, n)
	for c, err := range cells {
		if err != nil {
			return nil, err
		}
		if c.Query < 0 || c.Query >= n {
			return nil, queryErrorf("cell for query %d outside batch of %d", c.Query, n)
		}
		if c.Err != "" {
			results[c.Query] = &Result{Spec: c.Spec, Error: c.Err}
			continue
		}
		res := results[c.Query]
		if res == nil {
			res = &Result{}
			results[c.Query] = res
		}
		if c.Measure == "" { // header cell
			res.Spec, res.Name, res.N = c.Spec, c.Name, c.N
			res.Trials, res.Seed = c.Trials, c.Seed
			continue
		}
		if !c.Done {
			continue
		}
		if c.ReadFraction != nil {
			pt, err := foldPoint(&res.RWPoints, c)
			if err != nil {
				return nil, err
			}
			pt.ReadFraction = *c.ReadFraction
			if c.Degraded != nil {
				pt.Degraded = append(pt.Degraded, *c.Degraded)
				continue
			}
			v := c.Value
			switch c.Measure {
			case MeasureLoad:
				pt.Load = &v
			case MeasureCapacity:
				pt.Capacity = &v
			}
			continue
		}
		if c.P == nil {
			if c.Degraded != nil {
				res.Degraded = append(res.Degraded, *c.Degraded)
				continue
			}
			switch c.Measure {
			case MeasurePC:
				pc := int(c.Value)
				res.PC = &pc
			case MeasureTree:
				res.Tree = c.Tree
			case MeasureResilience:
				r := int(c.Value)
				res.Resilience = &r
			}
			continue
		}
		pt, err := foldPoint(&res.Points, c)
		if err != nil {
			return nil, err
		}
		pt.P = *c.P
		if c.Degraded != nil {
			pt.Degraded = append(pt.Degraded, *c.Degraded)
			continue
		}
		if c.Approx != nil {
			pt.Approx = append(pt.Approx, *c.Approx)
		}
		v := c.Value
		switch c.Measure {
		case MeasurePPC:
			pt.PPC = &v
		case MeasureAvailability:
			pt.Availability = &v
		case MeasureExpected:
			pt.Expected = &v
		case MeasureEstimate:
			pt.Estimate = &Estimate{Mean: v, HalfCI: c.HalfCI, Trials: c.Trials}
		case MeasureTimedTTQ:
			if c.Timed != nil {
				d := c.Timed.TTQ
				pt.TimedTTQ = &d
			}
		case MeasureTimedReach:
			pt.TimedReach = &v
		case MeasureTimedInFlight:
			if c.Timed != nil {
				f := c.Timed.Flight
				pt.TimedInFlight = &f
			}
		}
	}
	return results, nil
}

// foldPoint returns the grid point a done cell folds into. A valid stream
// emits each query's done cells in grid order, so the cell's point is
// either the last one folded or the next; any other point is a malformed
// stream, rejected like a query outside the batch.
func foldPoint[T any](points *[]T, c Cell) (*T, error) {
	if c.Point < 0 || c.Point > len(*points) {
		return nil, queryErrorf("cell for grid point %d of query %d out of order after %d points", c.Point, c.Query, len(*points))
	}
	if c.Point == len(*points) {
		var zero T
		*points = append(*points, zero)
	}
	return &(*points)[c.Point], nil
}

// CellSeq replays collected cells as an error-free stream — the
// canonical way to refold cells a consumer buffered (from a wire
// transcript, a log, or a live stream it drained first) through
// FoldCells.
func CellSeq(cells []Cell) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		for _, c := range cells {
			if !yield(c, nil) {
				return
			}
		}
	}
}

// degradeFallbackTrials is the fixed Monte Carlo budget of a
// deadline-degradation fallback. It is deliberately small — the caller
// already spent its budget on the exact attempt — and fixed rather than
// adaptive so the substitute estimate is deterministic for a given seed.
const degradeFallbackTrials = 4096

// memoizedExact reports whether the session memo can already answer the
// per-p exact measure (ppc or availability) with a value for free — a
// memoized PPC point, a derived availability polynomial (one Horner
// evaluation per p), or a closed form. A memoized error does not count:
// the approximate tier may still answer around it. The peek itself
// counts nothing; the exact path that follows records the memo hit.
func (e *Evaluator) memoizedExact(ent *evalEntry, sys System, m Measure, p float64) bool {
	key := artifactKey{kind: artifactPPC, p: p}
	if m == MeasureAvailability {
		if _, ok := sys.(ExactAvailability); ok {
			return true
		}
		key = artifactKey{kind: artifactAvailPoly}
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	o, ok := ent.memo[key]
	return ok && o.err == nil
}

// approxAnswer consults the approximate-answer tier for one per-p exact
// measure, honoring the opt-in contract: only when a cache is attached,
// the query declared a positive tolerance, and the system has a
// canonical spec to key by (sharedSpec). The session memo outranks it
// (lookup order memo → approx → store → compute): a tolerant query whose
// bit-exact answer is already memoized gets that answer, never an
// interpolation. The consultation — hit or miss — is counted in the
// session's tier stats; an un-consulted tier counts nothing.
func (e *Evaluator) approxAnswer(sys System, m Measure, p, tol float64) (*ApproxNote, float64, bool) {
	if e.approx == nil || tol <= 0 {
		return nil, 0, false
	}
	ent := e.entry(sys)
	sp := ent.sharedSpec(sys)
	if sp == "" || e.memoizedExact(ent, sys, m, p) {
		return nil, 0, false
	}
	ans, ok := e.approx.Lookup(sp, string(m), p, tol)
	if !ok {
		e.count(&e.missCount, tierApprox)
		return nil, 0, false
	}
	e.count(&e.hitCount, tierApprox)
	return &ApproxNote{Measure: m, P: p, Bound: ans.Bound, Lo: ans.Lo, Hi: ans.Hi}, ans.Value, true
}

// approxInsert feeds one exactly-computed per-p value into the
// approximate tier (when one is attached and the system has a canonical
// spec), whatever the query's tolerance: exact sweeps are what give later
// tolerant queries their brackets.
func (e *Evaluator) approxInsert(sys System, m Measure, p, v float64) {
	if e.approx == nil {
		return
	}
	if sp := e.entry(sys).sharedSpec(sys); sp != "" {
		e.approx.Insert(sp, string(m), p, v)
	}
}

// exactCell answers one p-independent exact measure (pc, tree,
// resilience) into c under the query's deadline budget: solve returns
// the cell value. A missed deadline leaves the degradation note alone —
// no Monte Carlo stand-in exists for an exact worst-case or
// combinatorial quantity — and any other failure, a recovered panic
// included, fails the query with its bound error made actionable. op
// names the measure in panics and errors.
func (e *Evaluator) exactCell(exactCtx context.Context, sys System, c Cell, op string, degraded func(error) bool, solve func(context.Context) (float64, error)) (Cell, error) {
	v, err := guardPanic(exactCtx, op, solve)
	switch {
	case err == nil:
		c.Value = v
	case degraded(err):
		c.Degraded = &Degradation{Measure: c.Measure, Reason: DegradeDeadline}
	default:
		return c, fmt.Errorf("%s of %s: %w", op, sys.Name(), e.boundify(err, sys))
	}
	return c, nil
}

// pointCell answers one per-p exact measure (ppc, availability) into c:
// from the approximate tier when the query's tolerance allows (the
// session memo outranks it), else exactly under the deadline budget —
// the exact value feeds the approximate tier — and, when the budget
// runs out, from the seeded Monte Carlo fallback, marked degraded. op
// names the measure in panics and errors.
func (e *Evaluator) pointCell(exactCtx context.Context, sys System, c Cell, tol float64, op string, degraded func(error) bool,
	exact func(context.Context) (float64, error), fallback func() (stats.Summary, error)) (Cell, error) {
	p := *c.P
	c.Done = true
	if note, av, ok := e.approxAnswer(sys, c.Measure, p, tol); ok {
		c.Value, c.Approx = av, note
		return c, nil
	}
	v, err := guardPanic(exactCtx, op, exact)
	switch {
	case err == nil:
		c.Value = v
		e.approxInsert(sys, c.Measure, p, v)
		return c, nil
	case degraded(err):
		if s, ferr := fallback(); ferr == nil {
			c.Value, c.Trials, c.StdErr, c.HalfCI = s.Mean, s.N, s.StdErr, halfCI(s)
			c.Degraded = &Degradation{Measure: c.Measure, Reason: DegradeDeadline, Estimate: &Estimate{Mean: s.Mean, HalfCI: halfCI(s), Trials: s.N}}
			return c, nil
		}
		// The fallback failed too; report the original budget overrun,
		// which is the root cause.
	}
	return c, fmt.Errorf("%s of %s at p=%v: %w", op, sys.Name(), p, e.boundify(err, sys))
}

// streamOne evaluates one normalized-on-entry query and hands its cells
// to emit in canonical order. A false return from emit stops evaluation
// with errStreamStopped; any other non-nil error is the query's failure,
// already wrapped with its measure context. Cancellation surfaces as
// ctx.Err() and, as everywhere in the session, caches nothing.
//
// Exact measures run under the query's DeadlineMS budget; when one runs
// out, the cell degrades (typed note, Monte Carlo substitute where one
// exists) and the query carries on — only the caller's own ctx aborts
// it. A measure that panics (a third-party System gone wrong) fails the
// query with a *PanicError instead of taking down the process.
func (e *Evaluator) streamOne(ctx context.Context, idx int, q Query, emit func(Cell) bool) error {
	nq, err := q.normalized()
	if err != nil {
		return err
	}
	sys, specStr, err := e.resolve(nq)
	if err != nil {
		return err
	}
	// Capacity vectors are validated for value in normalized(); lengths
	// need the system, so they are checked here, once per query.
	if len(nq.ReadFractions) > 0 {
		for role, caps := range map[string][]float64{"read": nq.readCaps(), "write": nq.writeCaps()} {
			if caps != nil && len(caps) != sys.Size() {
				return queryErrorf("%d %s capacities for the %d nodes of %s", len(caps), role, sys.Size(), sys.Name())
			}
		}
	}
	trials, seed := e.trials, e.seed
	if nq.Trials > 0 {
		trials = nq.Trials
	}
	if nq.Seed != 0 {
		seed = nq.Seed
	}
	adaptive, budget := nq.adaptive()
	// The timed measures run a fixed trial budget (the adaptive budget
	// inflation applies to the estimate measure only).
	timedTrials := trials
	if adaptive {
		trials = budget
	}
	var scen *des.Scenario
	if nq.hasTimed() {
		if scen, err = e.scenario(nq); err != nil {
			return queryErrorf("bad timed scenario: %v", err)
		}
	}

	// Exact solves run under the deadline budget; the fallbacks and the
	// estimate measure run under the caller's ctx, so a query keeps
	// degrading point after point once its budget is gone. degraded
	// distinguishes the budget expiring from the caller walking away.
	exactCtx := ctx
	if nq.DeadlineMS > 0 {
		var cancel context.CancelFunc
		exactCtx, cancel = context.WithTimeout(ctx, time.Duration(nq.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	degraded := func(err error) bool {
		return nq.DeadlineMS > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
	}

	head := Cell{Query: idx, Spec: specStr, Name: sys.Name(), N: sys.Size()}
	if nq.has(MeasureEstimate) {
		head.Trials, head.Seed = trials, seed
	} else if nq.hasTimed() {
		head.Trials, head.Seed = timedTrials, seed
	}
	if !emit(head) {
		return errStreamStopped
	}

	exactCellOf := func(m Measure) Cell {
		return Cell{Query: idx, Spec: specStr, Measure: m, Done: true}
	}
	if nq.has(MeasurePC) {
		c, err := e.exactCell(exactCtx, sys, exactCellOf(MeasurePC), "measure pc", degraded, func(ctx context.Context) (float64, error) {
			pc, err := e.ProbeComplexityCtx(ctx, sys)
			return float64(pc), err
		})
		if err != nil {
			return err
		}
		if !emit(c) {
			return errStreamStopped
		}
	}
	if nq.has(MeasureTree) {
		var tree *TreeSummary
		c, err := e.exactCell(exactCtx, sys, exactCellOf(MeasureTree), "measure tree", degraded, func(ctx context.Context) (float64, error) {
			root, err := e.OptimalStrategyTreeCtx(ctx, sys)
			if err != nil {
				return 0, err
			}
			tree = &TreeSummary{Depth: root.Depth(), Leaves: root.Leaves(), ASCII: render.StrategyTree(root)}
			return float64(tree.Depth), nil
		})
		if err != nil {
			return err
		}
		c.Tree = tree
		if !emit(c) {
			return errStreamStopped
		}
	}
	if nq.has(MeasureResilience) {
		c, err := e.exactCell(exactCtx, sys, exactCellOf(MeasureResilience), "measure resilience", degraded, func(ctx context.Context) (float64, error) {
			r, err := e.ResilienceCtx(ctx, sys)
			return float64(r), err
		})
		if err != nil {
			return err
		}
		if !emit(c) {
			return errStreamStopped
		}
	}
	for i := range nq.Ps {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := nq.Ps[i]
		cell := func(m Measure) Cell {
			return Cell{Query: idx, Spec: specStr, Measure: m, P: &p, Point: i}
		}
		if nq.has(MeasurePPC) {
			c, err := e.pointCell(exactCtx, sys, cell(MeasurePPC), nq.Tolerance, "measure ppc", degraded,
				func(ctx context.Context) (float64, error) { return e.AverageProbeComplexityCtx(ctx, sys, p) },
				func() (stats.Summary, error) {
					return e.estimateAdaptiveCtx(ctx, sys, p, degradeFallbackTrials, seed, nil)
				})
			if err != nil {
				return err
			}
			if !emit(c) {
				return errStreamStopped
			}
		}
		if nq.has(MeasureAvailability) {
			c, err := e.pointCell(exactCtx, sys, cell(MeasureAvailability), nq.Tolerance, "measure availability", degraded,
				func(ctx context.Context) (float64, error) { return e.AvailabilityCtx(ctx, sys, p) },
				func() (stats.Summary, error) {
					return e.estimateAvailabilityCtx(ctx, sys, p, degradeFallbackTrials, seed)
				})
			if err != nil {
				return err
			}
			if !emit(c) {
				return errStreamStopped
			}
		}
		if nq.has(MeasureExpected) {
			v, err := guardPanic(ctx, "measure expected", func(context.Context) (float64, error) { return e.ExpectedProbes(sys, p) })
			if err != nil {
				return fmt.Errorf("measure expected of %s at p=%v: %w", sys.Name(), p, err)
			}
			c := cell(MeasureExpected)
			c.Value, c.Done = v, true
			if !emit(c) {
				return errStreamStopped
			}
		}
		if nq.has(MeasureEstimate) {
			stopped := false
			progressAt := progressStride // first progress cell after one stride
			s, err := e.estimateAdaptiveCtx(ctx, sys, p, trials, seed, func(ch sim.Chunk) bool {
				if stopped {
					return true
				}
				if adaptive && ch.Trials >= minAdaptiveTrials && halfCI(ch.Summary) <= nq.Tolerance {
					return true // final value emitted below, from the returned summary
				}
				if ch.Trials >= progressAt && ch.Trials < trials {
					progressAt *= 2
					c := cell(MeasureEstimate)
					c.Value, c.Trials, c.StdErr, c.HalfCI = ch.Summary.Mean, ch.Trials, ch.Summary.StdErr, halfCI(ch.Summary)
					if !emit(c) {
						stopped = true
						return true
					}
				}
				return false
			})
			if stopped {
				return errStreamStopped
			}
			if err != nil {
				return fmt.Errorf("measure estimate of %s at p=%v: %w", sys.Name(), p, err)
			}
			c := cell(MeasureEstimate)
			c.Value, c.Trials, c.StdErr, c.HalfCI, c.Done = s.Mean, s.N, s.StdErr, halfCI(s), true
			if !emit(c) {
				return errStreamStopped
			}
		}
		if nq.hasTimed() {
			tr, err := guardPanic(ctx, "timed measures", func(ctx context.Context) (des.Result, error) {
				return des.RunCtx(ctx, des.Params{
					Sys: sys, Scenario: scen, P: p, Trials: timedTrials, Seed: seed, Workers: e.parallelism,
				})
			})
			if err != nil {
				return fmt.Errorf("timed measures of %s at p=%v: %w", sys.Name(), p, e.boundify(err, sys))
			}
			summary := &TimedSummary{
				TTQ:    TimedDist{MeanMS: tr.TTQ.MeanMS, P50MS: tr.TTQ.P50MS, P99MS: tr.TTQ.P99MS, MaxMS: tr.TTQ.MaxMS},
				Flight: TimedFlight{MeanInFlight: tr.InFlightMean, MaxInFlight: tr.InFlightMax, IssuedMean: tr.IssuedMean, StaticMean: tr.StaticMean},
				Reach:  tr.Reach,
				Trials: tr.Trials,
			}
			for _, m := range []Measure{MeasureTimedTTQ, MeasureTimedReach, MeasureTimedInFlight} {
				if !nq.has(m) {
					continue
				}
				c := cell(m)
				c.Timed, c.Trials, c.Done = summary, tr.Trials, true
				switch m {
				case MeasureTimedTTQ:
					c.Value = summary.TTQ.MeanMS
				case MeasureTimedReach:
					c.Value = summary.Reach
				case MeasureTimedInFlight:
					c.Value = summary.Flight.MeanInFlight
				}
				if !emit(c) {
					return errStreamStopped
				}
			}
		}
	}
	for i := range nq.ReadFractions {
		if err := ctx.Err(); err != nil {
			return err
		}
		fr := nq.ReadFractions[i]
		opts := StrategyOptions{
			Workload: Workload{ReadFraction: fr, ReadCapacity: nq.readCaps(), WriteCapacity: nq.writeCaps()},
			F:        nq.F,
		}
		s, err := guardPanic(exactCtx, "measure load", func(ctx context.Context) (*Strategy, error) { return e.StrategyCtx(ctx, sys, opts) })
		var load float64
		if err == nil {
			load, err = s.Load(opts.Workload)
		}
		frCell := func(m Measure) Cell {
			return Cell{Query: idx, Spec: specStr, Measure: m, ReadFraction: &fr, Point: i, Done: true}
		}
		if err != nil && !degraded(err) {
			return fmt.Errorf("measure load of %s at read fraction %v: %w", sys.Name(), fr, e.boundify(err, sys))
		}
		for _, m := range []Measure{MeasureLoad, MeasureCapacity} {
			if !nq.has(m) {
				continue
			}
			c := frCell(m)
			switch {
			case err != nil:
				// The LP ran out of the deadline budget at this grid point;
				// an optimal strategy has no cheap stochastic substitute.
				c.Degraded = &Degradation{Measure: m, Reason: DegradeDeadline}
			case m == MeasureLoad:
				c.Value = load
			case load <= 0:
				c.Value = math.Inf(1)
			default:
				c.Value = 1 / load
			}
			if !emit(c) {
				return errStreamStopped
			}
		}
	}
	return nil
}

// progressStride is the first estimate checkpoint that emits a progress
// cell; later progress cells come at doubling trial counts (64, 128,
// 256, ...), so a point streams O(log trials) cells however long it
// runs, while the tolerance check still fires on every chunk.
const progressStride = 64
