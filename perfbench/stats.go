package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// percentile returns the Harrell-Davis estimate of the p-th percentile
// (0 < p < 100) of samples, together with how many samples lie strictly
// above it. The estimate is a weighted mean of all order statistics, with
// Beta(p(n+1), (1-p)(n+1)) weights, so it moves smoothly when samples near
// the percentile swap ranks; a single order statistic jumps across any gap
// in a heavy-tailed latency distribution. Callers require at least ten
// samples beyond a reported percentile.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	a, b := p/100*float64(n+1), (1-p/100)*float64(n+1)
	prev := 0.0
	for i, v := range s {
		next := regIncBeta(float64(i+1)/float64(n), a, b)
		value += (next - prev) * v
		prev = next
	}
	for _, v := range s {
		if v > value {
			beyond++
		}
	}
	return value, beyond
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the continued fraction of Numerical Recipes §6.4.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 1000
		eps     = 3e-14
		tiny    = 1e-300
	)
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		for _, aa := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 / clamp(1+aa*d)
			c = clamp(1 + aa/c)
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// median returns the middle sample (mean of the two middle ones for an
// even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and uses at most 64 letters, digits, '_', '.'
// and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named figures in insertion order.
type metrics struct {
	names  []string
	values map[string]metric
}

func newMetrics() *metrics { return &metrics{values: map[string]metric{}} }

// set records a metric, rejecting malformed or duplicate names and
// non-finite values: any of those is a bug in the benchmark itself.
func (m *metrics) set(name string, value float64, unit string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if _, dup := m.values[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q set twice", name))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("perfbench: metric %q is %v", name, value))
	}
	m.names = append(m.names, name)
	m.values[name] = metric{Value: value, Unit: unit}
}

// digest hashes an ordered list of (answer text, virtual time) pairs. Two
// runs whose answers and virtual times are byte-identical in the same
// order have equal digests; any difference in text, time or order changes
// it.
type digest struct {
	n    int
	text []byte
}

func (d *digest) add(answer string, vtime time.Duration) {
	d.n++
	d.text = strconv.AppendQuote(d.text, answer)
	d.text = append(d.text, '\t')
	d.text = strconv.AppendInt(d.text, int64(vtime), 10)
	d.text = append(d.text, '\n')
}

// String returns the count and the first 16 hex digits of the SHA-256.
func (d *digest) String() string {
	sum := sha256.Sum256(d.text)
	return fmt.Sprintf("%d:%s", d.n, hex.EncodeToString(sum[:8]))
}
