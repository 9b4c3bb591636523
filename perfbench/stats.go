package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of samples by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. It sorts samples in place. NaN for an empty set.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	rank = min(max(rank, 1), len(samples))
	return float64(samples[rank-1])
}

// median of float values (mean of the middle pair for even counts). It
// does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same method as
// Python's statistics.quantiles(data, n=4) (the default, "exclusive"), so
// spreads printed here match the ones computed from the result lines.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// sampler keeps a bounded uniform sample of int64 observations (reservoir
// sampling). Its storage is allocated and touched up front, so the memory a
// run holds does not grow with how many operations it completes.
type sampler struct {
	buf  []int64
	seen int64
	rng  uint64
}

func newSampler(capacity int, seed uint64) *sampler {
	buf := make([]int64, capacity)
	for i := range buf {
		buf[i] = -1 // touch every page now, not during the timed phase
	}
	return &sampler{buf: buf[:0], rng: seed | 1}
}

func (s *sampler) add(x int64) {
	s.seen++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, x)
		return
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % uint64(s.seen); j < uint64(len(s.buf)) {
		s.buf[j] = x
	}
}

func (s *sampler) reset() {
	s.buf = s.buf[:0]
	s.seen = 0
}

// merged returns the union of the samplers' retained samples.
func merged(ss ...*sampler) []int64 {
	var out []int64
	for _, s := range ss {
		out = append(out, s.buf...)
	}
	return out
}

// roundPercentiles takes p50 and p99 of each measured round's latency
// samples and empties the samplers for the next round. A run reports the
// median of each over its rounds, as ops_s is the median round rate, so a
// burst of load on the host that slows a few rounds moves neither.
type roundPercentiles struct {
	ss       []*sampler
	buf      []int64
	p50, p99 []float64
	samples  int // retained samples over all rounds
}

func newRoundPercentiles(ss ...*sampler) *roundPercentiles {
	n := 0
	for _, s := range ss {
		n += cap(s.buf)
	}
	return &roundPercentiles{ss: ss, buf: make([]int64, 0, n)}
}

// take records the round just finished.
func (r *roundPercentiles) take() {
	r.buf = r.buf[:0]
	for _, s := range r.ss {
		r.buf = append(r.buf, s.buf...)
		s.reset()
	}
	r.samples += len(r.buf)
	r.p50 = append(r.p50, percentile(r.buf, 50))
	r.p99 = append(r.p99, percentile(r.buf, 99))
}

// reset forgets the rounds taken so far and empties the samplers.
func (r *roundPercentiles) reset() {
	for _, s := range r.ss {
		s.reset()
	}
	r.p50, r.p99, r.samples = r.p50[:0], r.p99[:0], 0
}

// medianDurations is the median of each entry's durations, in ns.
func medianDurations(ds [][]time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		ns := make([]float64, len(d))
		for j, x := range d {
			ns[j] = float64(x.Nanoseconds())
		}
		out[i] = int64(median(ns))
	}
	return out
}
