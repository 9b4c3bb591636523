package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tokentm/internal/core"
	"tokentm/internal/explore"
)

// sim-explore: a fixed subset of the standard exploration sweep, chosen to
// take a few seconds, plus the seeded-mutation smoke checks. A round runs
// every cell of the subset exhaustively under the default budget. Every
// cell explores hundreds of schedules or more, so its host time per
// schedule is not dominated by fixed costs.
var exploreCells = []struct{ program, variant string }{
	{"writer-reread", "TokenTM"},
	{"writer-reread", "LogTM-SE_Perf"},
	{"writer-reread", "LogTM-SE_2xH3"},
	{"writer-reread", "LogTM-SE_4xH3"},
	{"upgrade-duel", "LogTM-SE_Perf"},
	{"upgrade-duel", "LogTM-SE_2xH3"},
	{"upgrade-duel", "LogTM-SE_4xH3"},
}

// exploreMutations are the seeded protocol bugs the explorer must catch,
// each on the standard program shaped to expose it.
var exploreMutations = []struct {
	mut     core.Mutation
	program string
}{
	{core.MutSkipLogCredit, "incr-cross"},
	{core.MutNoFissionWriter, "writer-reread"},
}

// exploreSetupBuilds is how many times a set-up sample builds the
// programs: one build takes about 1.5 µs, too short to time alone.
const exploreSetupBuilds = 4000

// exploreRound runs the subset one cell at a time in the given order, then
// the mutation checks, and returns the sweep result and each cell's host
// time, both in exploreCells order.
func exploreRound(progs map[string]*explore.Program, budget explore.Budget, order []int) (*explore.SweepResult, []time.Duration) {
	sw := &explore.SweepResult{Format: explore.Format, Budget: budget,
		Results: make([]*explore.Result, len(exploreCells))}
	times := make([]time.Duration, len(exploreCells))
	for _, i := range order {
		c := exploreCells[i]
		t0 := time.Now()
		sw.Results[i] = explore.Explore(progs[c.program], explore.DefaultOptions(c.variant))
		times[i] = time.Since(t0)
	}
	for _, m := range exploreMutations {
		sw.MutationChecks = append(sw.MutationChecks, explore.CheckMutation(m.mut, m.program, budget))
	}
	return sw, times
}

func buildPrograms() map[string]*explore.Program {
	progs := map[string]*explore.Program{}
	for _, p := range explore.StandardPrograms() {
		progs[p.Name] = p
	}
	return progs
}

func runSimExplore(cfg runConfig) (*result, error) {
	// The explorer is sequential: one schedule at a time, the simulated
	// threads taking turns. Run on one P, its time is the explorer's own;
	// on two, its hundreds of collections a second each stop both vCPUs,
	// and the rate measured 2151 against 3085 schedules/s on one P, and
	// halved whenever the host was busy (quartile spread 0.55 over ten
	// runs against 0.04-0.07 for the kv workloads).
	runtime.GOMAXPROCS(1)
	res := newResult()
	// The exploration budget, seed included, is the standard one, so the
	// explored trees (and explore.schedules) are the same in every run;
	// the run's --seed orders the cells within a round.
	budget := explore.DefaultBudget()
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(exploreCells))

	progs := buildPrograms()
	for _, c := range exploreCells {
		if progs[c.program] == nil {
			return nil, fmt.Errorf("no standard exploration program %q", c.program)
		}
	}

	cellTimes := make([][]time.Duration, len(exploreCells)) // one per measured round
	cellScheds := make([]int, len(exploreCells))            // per round
	var schedules, states []int
	rounds := 0
	round := func() error {
		sw, times := exploreRound(progs, budget, order)
		rounds++
		n, st := 0, 0
		for i, r := range sw.Results {
			n += r.Schedules
			st += r.DistinctStates
			cellTimes[i] = append(cellTimes[i], times[i])
			cellScheds[i] = r.Schedules
		}
		for _, mc := range sw.MutationChecks {
			n += mc.Schedules
		}
		schedules = append(schedules, n)
		states = append(states, st)
		if f := sw.Failures(); len(f) > 0 {
			res.failed += int64(len(f))
			for _, msg := range f {
				res.fail("exploration: %s", msg)
			}
		}
		if n != schedules[0] || st != states[0] {
			res.fail("exploration not repeatable: %d schedules / %d states in one round, %d / %d in another",
				n, st, schedules[0], states[0])
		}
		return nil
	}

	// Warm-up round, then the measured phase.
	round()
	for i := range cellTimes {
		cellTimes[i] = cellTimes[i][:0]
	}
	phase := cfg.seconds
	if cfg.trace {
		phase = cfg.seconds / 2
	}
	var setup *setupTimer
	if !cfg.trace {
		setup = &setupTimer{calls: 1, setups: exploreSetupBuilds, build: func(int) func() {
			for i := 0; i < exploreSetupBuilds; i++ {
				buildPrograms()
			}
			return nil
		}}
	}
	durs, _ := measuredPhase(res, phase, round, nil, setup)
	perRound := float64(schedules[0])
	untracedRate := median(rates(perRound, durs))
	res.record["schedules_per_s"] = untracedRate
	res.record["round_rates"] = spreadRecord(rates(perRound, durs))
	res.record["schedules_per_round"] = schedules[0]
	if !cfg.trace {
		res.metrics["ops_s"] = untracedRate
		// Each cell's host time per schedule, in ns: the median over the
		// measured rounds of the cell's time, divided by its schedules,
		// which are the same in every round.
		per := medianDurations(cellTimes)
		for i := range per {
			per[i] /= int64(max(cellScheds[i], 1))
		}
		res.metrics["p50_us"] = percentile(per, 50) / 1e3
		res.metrics["p99_us"] = percentile(per, 99) / 1e3
		res.record["percentile_samples"] = len(per)
		res.record["percentile_ops"] = "host time per schedule of each exploration cell, median over the measured rounds"
	} else {
		tr, err := startTrace()
		if err != nil {
			return nil, err
		}
		tdurs, _ := roundLoop(phase, round, nil)
		tt, err := tr.stop()
		if err != nil {
			return nil, err
		}
		work := perRound * float64(len(tdurs))
		m := res.metrics
		m["explore.schedules"] = perRound
		m["explore.states"] = float64(states[0])
		m["explore.ns_per_schedule"] = totalSeconds(tdurs) * 1e9 / work
		traceCommon(res, tt, work, "schedule")
		traceOverhead(res, untracedRate, median(rates(perRound, tdurs)))
	}
	res.record["rounds"] = rounds
	res.attempted = int64(rounds * (len(exploreCells) + len(exploreMutations)))
	return res, nil
}
