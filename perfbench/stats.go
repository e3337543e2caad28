package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// lat records durations in nanoseconds. Durations below linearMax land in
// one-nanosecond buckets, which keeps tens of millions of sub-microsecond
// reads in fixed memory without rounding them; longer ones are kept as
// raw samples. Not safe for concurrent use.
type lat struct {
	lin  []uint64 // lin[i] counts durations of exactly i ns; allocated lazily
	raw  []float64
	n    int
	sum  float64
	sort bool
}

const linearMax = 1 << 16

func (l *lat) add(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	l.n++
	l.sum += float64(ns)
	if ns < linearMax {
		if l.lin == nil {
			l.lin = make([]uint64, linearMax)
		}
		l.lin[ns]++
		return
	}
	l.raw = append(l.raw, float64(ns))
	l.sort = false
}

func (l *lat) count() int { return l.n }

// reserve allocates and touches the one-nanosecond buckets now, so that
// recording later neither allocates nor grows the process's memory.
func (l *lat) reserve() {
	if l.lin == nil {
		l.lin = make([]uint64, linearMax)
	}
	clear(l.lin)
}

// quantile returns the nearest-rank p-quantile in nanoseconds. Inside a
// one-nanosecond bucket the samples are taken as spread evenly over the
// nanosecond (the clock truncates, so that is where they lie), which keeps
// the digits below a nanosecond instead of snapping every run to the same
// integer. It returns NaN when there are no samples.
func (l *lat) quantile(p float64) float64 {
	if l.n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(l.n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	var seen int
	for ns, c := range l.lin {
		if c == 0 {
			continue
		}
		if rank < seen+int(c) {
			return float64(ns) + (float64(rank-seen)+0.5)/float64(c)
		}
		seen += int(c)
	}
	if !l.sort {
		sort.Float64s(l.raw)
		l.sort = true
	}
	return l.raw[rank-seen]
}

// tailLevels are the percentiles the tail rule chooses from.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// tailLevel is the percentile rule: the highest of tailLevels that has at
// least ten samples beyond it among n. It returns 0 when even the median
// lacks ten samples beyond it.
func tailLevel(n int) float64 {
	best := 0.0
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// supports reports whether n samples support quoting percentile p under
// the tail rule.
func supports(n int, p float64) bool { return tailLevel(n) >= p-1e-12 }

// median returns the median of xs (which it sorts), or NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// parts is how many equal sub-windows a measured window is split into.
const parts = 5

// series is a latency distribution kept per sub-window of the measured
// window. Its quantiles are medians over the sub-windows, which a
// transient stall of a shared machine moves less than a quantile over the
// whole window; all holds the whole window for the tail rule.
type series struct {
	span time.Duration // sub-window length
	part [parts]lat
	all  lat
}

func newSeries(window time.Duration) *series { return &series{span: window / parts} }

// add records d for an operation that started at (since the window opened).
func (s *series) add(at, d time.Duration) {
	i := int(at / s.span)
	if i >= parts {
		i = parts - 1
	}
	if i < 0 {
		i = 0
	}
	s.part[i].add(d)
	s.all.add(d)
}

func (s *series) count() int { return s.all.count() }

// reserve allocates every bucket of the series up front (see lat.reserve).
func (s *series) reserve() *series {
	for i := range s.part {
		s.part[i].reserve()
	}
	s.all.reserve()
	return s
}

// quantile is the median over sub-windows of each one's p-quantile, in
// nanoseconds.
func (s *series) quantile(p float64) float64 { return median(s.parts(p)) }

// parts returns each non-empty sub-window's p-quantile in nanoseconds, in
// time order.
func (s *series) parts(p float64) []float64 {
	var qs []float64
	for i := range s.part {
		if s.part[i].count() > 0 {
			qs = append(qs, s.part[i].quantile(p))
		}
	}
	return qs
}

// reservoir keeps a uniform sample of fixed size from a stream of groups
// of width items each; a group is kept or dropped whole. Its memory is
// allocated and touched when it is made, so the harness's footprint does
// not grow with throughput or run length.
type reservoir struct {
	rng   *rand.Rand
	buf   []readSample // kept groups, back to back
	width int
	seen  int // groups offered
}

func newReservoir(rng *rand.Rand, groups, width int) *reservoir {
	buf := make([]readSample, groups*width)
	clear(buf)
	return &reservoir{rng: rng, buf: buf[:0], width: width}
}

// add offers one group of r.width samples.
func (r *reservoir) add(group []readSample) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, group...)
		return
	}
	if j := r.rng.Intn(r.seen); j < cap(r.buf)/r.width {
		copy(r.buf[j*r.width:], group)
	}
}

// Graded reads kept per run: point reads singly, bulk reads whole.
const (
	keptPoints = 1 << 15
	keptBulks  = 1 << 9
)

// samples is the fixed-size set of reads a run grades.
type samples struct {
	points, bulks *reservoir
	group         []readSample // scratch for one bulk read
}

func newSamples(seed int64) *samples {
	rng := rand.New(rand.NewSource(seed))
	return &samples{
		points: newReservoir(rng, keptPoints, 1),
		bulks:  newReservoir(rng, keptBulks, bulkSize),
		group:  make([]readSample, bulkSize),
	}
}

// point offers one point read.
func (s *samples) point(sm readSample) {
	s.group[0] = sm
	s.points.add(s.group[:1])
}

// bulk offers one epoch-pinned bulk read of vs at epoch.
func (s *samples) bulk(vs []uint32, est []float64, epoch uint64) {
	for j, v := range vs {
		s.group[j] = readSample{v: v, est: est[j], lo: epoch, hi: epoch, pinned: true, anchor: j == 0}
	}
	s.bulks.add(s.group)
}

// all returns a copy of every kept sample.
func (s *samples) all() []readSample {
	return append(append([]readSample(nil), s.points.buf...), s.bulks.buf...)
}
