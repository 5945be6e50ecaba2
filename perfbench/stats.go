package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minTail = 10

// samples is a concurrent collection of values (milliseconds unless a
// metric says otherwise).
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the nearest-rank q-quantile of sorted values, and
// whether at least minTail samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minTail
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q, _ := quantile(s, 0.5)
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported value with its unit, in the result line's
// shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results holds the metrics of one run plus, for the human-readable
// table, how many samples each rests on.
type results struct {
	order  []string
	values map[string]metric
	counts map[string]int
	notes  map[string]string
}

func newResults() *results {
	return &results{values: map[string]metric{}, counts: map[string]int{}, notes: map[string]string{}}
}

// set records a value measured from n samples (n < 0: a count or ratio
// that is not a sample statistic).
func (r *results) set(name, unit string, v float64, n int) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
}

// setQuantiles records the given percentiles (default p50 and p99) of
// s as stem_pNN_unit, or stem_pNN when stem already ends in the unit.
// A percentile without minTail samples beyond it reports 0 and is
// marked in the table.
func (r *results) setQuantiles(stem, unit string, s *samples, percentiles ...int) {
	if len(percentiles) == 0 {
		percentiles = []int{50, 99}
	}
	sorted := s.sorted()
	for _, pct := range percentiles {
		name := fmt.Sprintf("%s_p%d_%s", stem, pct, unit)
		if strings.HasSuffix(stem, "_"+unit) {
			name = fmt.Sprintf("%s_p%d", stem, pct)
		}
		v, ok := quantile(sorted, float64(pct)/100)
		if !ok {
			r.set(name, unit, 0, len(sorted))
			r.notes[name] = "too few samples"
			continue
		}
		r.set(name, unit, v, len(sorted))
	}
}

func (r *results) note(name, text string) { r.notes[name] = text }

func (r *results) get(name string) float64 { return r.values[name].Value }

// table renders every value with its unit and sample count.
func (r *results) table() string {
	var out string
	for _, name := range r.order {
		m := r.values[name]
		n := ""
		if c := r.counts[name]; c >= 0 {
			n = fmt.Sprintf("n=%d", c)
		}
		line := fmt.Sprintf("  %-34s %14.4f %-8s %s", name, m.Value, m.Unit, n)
		if note := r.notes[name]; note != "" {
			line += "  (" + note + ")"
		}
		out += line + "\n"
	}
	return out
}
