package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tokentm"
	"tokentm/internal/workload"
)

// sim-sweep: the Figure-5 grid (every workload x every variant) on the
// 32-core simulated CMP, one cell at a time on one P. A round runs the
// whole grid.
const (
	sweepScale = 0.02
	sweepCores = 32

	// sweepSimSeed seeds every cell's simulation (backoff jitter and
	// workload generators). It is fixed, so the simulated work of a round
	// — and sim.mcycles — is the same in every run; the run's --seed
	// picks the cell the round starts from instead (see sweepOrder).
	sweepSimSeed = 1
)

// cellRun is one grid cell's outcome in one round.
type cellRun struct {
	spec    workload.Spec
	variant tokentm.Variant
	build   time.Duration // tokentm.New + Spec.Build
	run     time.Duration // System.Run
	cycles  uint64
	commits uint64
	aborts  uint64
	fast    uint64
	slow    uint64
	err     error
}

// expectedCommits is the transaction count a cell must commit, computed
// from the spec: NumXacts x scale, at least one per thread, divided evenly
// over the threads.
func expectedCommits(spec workload.Spec, scale float64, threads int) uint64 {
	total := int(float64(spec.NumXacts) * scale)
	if total < threads {
		total = threads
	}
	return uint64(total / threads * threads)
}

// runCell builds and runs one cell, then checks it: commit count against
// the spec, cycle conservation, and token bookkeeping on TokenTM.
func runCell(spec workload.Spec, v tokentm.Variant, seed int64) cellRun {
	c := cellRun{spec: spec, variant: v}
	t0 := time.Now()
	sys := tokentm.New(tokentm.Config{Variant: v, Cores: sweepCores, Seed: seed})
	spec.Build(sys.M, sweepCores, sweepScale, seed)
	t1 := time.Now()
	c.cycles = uint64(sys.Run())
	c.build, c.run = t1.Sub(t0), time.Since(t1)
	c.commits = uint64(len(sys.M.Commits))
	c.aborts = sys.HTM.Stats().Aborts
	if want := expectedCommits(spec, sweepScale, sweepCores); c.commits != want {
		c.err = fmt.Errorf("%s/%s committed %d transactions, spec implies %d", spec.Name, v, c.commits, want)
		return c
	}
	if err := sys.M.CheckConservation(); err != nil {
		c.err = fmt.Errorf("%s/%s cycle conservation: %w", spec.Name, v, err)
		return c
	}
	if tok := sys.TokenTM(); tok != nil {
		c.fast, c.slow = tok.FastCommits, tok.SlowCommits
		if err := tok.CheckBookkeeping(); err != nil {
			c.err = fmt.Errorf("%s/%s token bookkeeping: %w", spec.Name, v, err)
		}
	}
	return c
}

type cell struct {
	spec    workload.Spec
	variant tokentm.Variant
}

// grid is the Figure-5 grid in the paper's order.
func grid() []cell {
	var g []cell
	for _, s := range workload.Specs() {
		for _, v := range tokentm.Variants() {
			g = append(g, cell{s, v})
		}
	}
	return g
}

// buildCell builds one cell (tokentm.New + Spec.Build) and returns a
// function that discards the machine.
func buildCell(c cell, seed int64) (discard func()) {
	sys := tokentm.New(tokentm.Config{Variant: c.variant, Cores: sweepCores, Seed: seed})
	c.spec.Build(sys.M, sweepCores, sweepScale, seed)
	return sys.M.Kill // ends the thread goroutines Build started
}

// sweepOrder is the order in which a round runs the n cells: the grid's
// order, starting from a cell the seed picks.
func sweepOrder(n int, seed int64) []int {
	start := rand.New(rand.NewSource(seed)).Intn(n)
	order := make([]int, n)
	for i := range order {
		order[i] = (start + i) % n
	}
	return order
}

// sweepRound runs every cell, one after another in the given order, and
// returns the runs in grid order.
func sweepRound(g []cell, order []int) []cellRun {
	out := make([]cellRun, len(g))
	for _, i := range order {
		out[i] = runCell(g[i].spec, g[i].variant, sweepSimSeed)
	}
	return out
}

// sweepTotals sums a round.
type sweepTotals struct {
	build, coreRun, logRun      time.Duration
	cycles, coreCyc, logCyc     uint64
	commits, aborts, fast, slow uint64
}

func totalsOf(runs []cellRun) sweepTotals {
	var t sweepTotals
	for _, c := range runs {
		t.build += c.build
		t.cycles += c.cycles
		t.commits += c.commits
		t.aborts += c.aborts
		t.fast += c.fast
		t.slow += c.slow
		if c.variant == tokentm.VariantTokenTM || c.variant == tokentm.VariantTokenTMNoFast {
			t.coreRun += c.run
			t.coreCyc += c.cycles
		} else {
			t.logRun += c.run
			t.logCyc += c.cycles
		}
	}
	return t
}

func runSimSweep(cfg runConfig) (*result, error) {
	// One cell at a time on one P. With two cells on two Ps the round's
	// wall time hung on which cells ran side by side and which one ran
	// alone at the end (both set by the seed's starting cell), and on
	// the two cells' goroutine hand-offs and collections contending for
	// the host's two vCPUs: ops_s and p99_us spread 0.19-0.28 over ten
	// runs on the same code.
	runtime.GOMAXPROCS(1)
	res := newResult()
	g := grid()
	order := sweepOrder(len(g), cfg.seed)

	var first []cellRun
	var totals []sweepTotals
	cellTimes := make([][]time.Duration, len(g)) // per cell, one per measured round
	rounds := 0
	round := func() error {
		runs := sweepRound(g, order)
		rounds++
		for i, c := range runs {
			if c.err != nil {
				res.failed++
				res.fail("%v", c.err)
			}
			if first != nil && c.cycles != first[i].cycles {
				res.fail("%s/%s: %d cycles in one round, %d in another with the same seed",
					c.spec.Name, c.variant, c.cycles, first[i].cycles)
			}
			cellTimes[i] = append(cellTimes[i], c.build+c.run)
		}
		if first == nil {
			first = runs
		}
		totals = append(totals, totalsOf(runs))
		return nil
	}
	// Warm-up round, then the measured phase.
	round()
	totals = totals[:0]
	for i := range cellTimes {
		cellTimes[i] = cellTimes[i][:0]
	}
	phase := cfg.seconds
	if cfg.trace {
		phase = cfg.seconds / 2
	}
	// A set-up is every cell of the grid built.
	var setup *setupTimer
	if !cfg.trace {
		setup = &setupTimer{calls: len(g), setups: 1, build: func(i int) func() {
			return buildCell(g[i], sweepSimSeed)
		}}
	}
	durs, _ := measuredPhase(res, phase, round, nil, setup)
	kcycles := float64(totals[0].cycles) / 1e3
	untracedRate := median(rates(kcycles, durs))
	res.record["sim_kcycles_per_s"] = untracedRate
	res.record["sim_mcycles"] = kcycles / 1e3
	res.record["round_rates"] = spreadRecord(rates(kcycles, durs))
	res.record["cells_per_round"] = len(g)
	res.record["scale"] = sweepScale

	if !cfg.trace {
		// Each cell's host time per committed simulated transaction, in
		// ns: the median over the measured rounds of the cell's time,
		// divided by its commits, which the spec fixes.
		perTxn := medianDurations(cellTimes)
		for i := range perTxn {
			perTxn[i] /= int64(first[i].commits)
		}
		res.metrics["ops_s"] = untracedRate
		cellUs := map[string]float64{}
		for i, c := range g {
			cellUs[c.spec.Name+"/"+string(c.variant)] = float64(perTxn[i]) / 1e3
		}
		res.metrics["p50_us"] = percentile(perTxn, 50) / 1e3
		res.metrics["p99_us"] = percentile(perTxn, 99) / 1e3
		res.record["percentile_samples"] = len(perTxn)
		res.record["percentile_ops"] = "host time per simulated transaction of each grid cell, median over the measured rounds"
		res.record["cell_us_per_txn"] = cellUs
	} else {
		totals = totals[:0]
		tr, err := startTrace()
		if err != nil {
			return nil, err
		}
		tdurs, _ := roundLoop(phase, round, nil)
		tt, err := tr.stop()
		if err != nil {
			return nil, err
		}
		n := float64(len(tdurs))
		var sum sweepTotals
		for _, t := range totals {
			sum.build += t.build
			sum.coreRun += t.coreRun
			sum.logRun += t.logRun
		}
		t0 := totals[0]
		m := res.metrics
		m["sim.build_s"] = sum.build.Seconds() / n
		m["core.run_s"] = sum.coreRun.Seconds() / n
		m["logtmse.run_s"] = sum.logRun.Seconds() / n
		m["core.ns_per_kcycle"] = float64(sum.coreRun.Nanoseconds()) / n / (float64(t0.coreCyc) / 1e3)
		m["logtmse.ns_per_kcycle"] = float64(sum.logRun.Nanoseconds()) / n / (float64(t0.logCyc) / 1e3)
		m["sim.commits"] = float64(t0.commits)
		m["sim.aborts"] = float64(t0.aborts)
		m["sim.mcycles"] = float64(t0.cycles) / 1e6
		m["core.fast_commits"] = float64(t0.fast)
		m["core.slow_commits"] = float64(t0.slow)
		traceCommon(res, tt, kcycles*n, "kcycle")
		traceOverhead(res, untracedRate, median(rates(kcycles, tdurs)))
	}
	res.record["rounds"] = rounds
	res.attempted = int64(rounds * len(g))

	// Re-run one cell on its own: the same seed must give the same cycles.
	again := runCell(g[0].spec, g[0].variant, sweepSimSeed)
	if again.err != nil || again.cycles != first[0].cycles {
		res.fail("re-run of %s/%s: %d cycles (err %v), first run had %d",
			again.spec.Name, again.variant, again.cycles, again.err, first[0].cycles)
	}
	return res, nil
}
