package experiments

import (
	"math/rand/v2"

	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

// ParallelTradeoff maps the probes/rounds frontier of witness search on a
// crumbling wall: sequential Probe_CW (few probes, many rounds), row-wise
// parallel probing (more probes, few rounds) and single-round full
// parallelism — the latency dimension a deployment cares about when each
// probe is an RPC.
func ParallelTradeoff() Report {
	r := Report{ID: "X7", Title: "Probes vs rounds: sequential vs row-parallel vs full-parallel witness search"}
	tri := mustSystem[*systems.CW]("triang:8") // n = 36, k = 8
	const trials = 4000
	for _, p := range []float64{0.1, 0.5} {
		var seqP, seqR, rowP, rowR, fullP, fullR float64
		rng := rand.New(rand.NewPCG(71, uint64(p*100)))
		for i := 0; i < trials; i++ {
			col := coloring.IID(tri.Size(), p, rng)
			ps, rs := core.SequentialRounds(tri, col, tri.ProbeWitness)
			seqP += float64(ps)
			seqR += float64(rs)
			ps, rs = core.ParallelCost(col, func(o *probe.BatchOracle) probe.Witness {
				return core.ParallelProbeCW(tri, o)
			})
			rowP += float64(ps)
			rowR += float64(rs)
			ps, rs = core.ParallelCost(col, func(o *probe.BatchOracle) probe.Witness {
				return core.FullParallel(tri, o)
			})
			fullP += float64(ps)
			fullR += float64(rs)
		}
		div := float64(trials)
		r.addf("p=%.1f  %-22s probes=%7.2f  rounds=%6.2f", p, "Probe_CW (sequential)", seqP/div, seqR/div)
		r.addf("p=%.1f  %-22s probes=%7.2f  rounds=%6.2f", p, "row-parallel (bottom-up)", rowP/div, rowR/div)
		r.addf("p=%.1f  %-22s probes=%7.2f  rounds=%6.2f", p, "full-parallel", fullP/div, fullR/div)
	}
	r.addf("the wall trades a ~2x probe (message) overhead for a ~5x latency win;")
	r.addf("full parallelism buys one round at the price of probing everything.")
	return r
}
