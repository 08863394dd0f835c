package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileHarrellDavis(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // unsorted input
		s = append(s, float64(i))
	}
	// On the integers 1..n the estimate is pn + 1/2.
	for _, tc := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50.5, 50},
		{90, 90.5, 10},
		{10, 10.5, 90},
	} {
		got, beyond := percentile(s, tc.p)
		if math.Abs(got-tc.want) > 1e-6 || beyond != tc.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if s[0] != 100 {
		t.Errorf("percentile sorted its input in place")
	}
}

func TestPercentileSampleCount(t *testing.T) {
	// Ten samples beyond the p90 need about a hundred samples.
	for n := 1; n <= 120; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i * i) // heavy upper tail
		}
		_, beyond := percentile(s, 90)
		if n < 90 && beyond >= 10 || n >= 100 && beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p90", n, beyond)
		}
	}
	if v, n := percentile([]float64{7, 7, 7}, 90); v != 7 || n != 0 {
		t.Errorf("constant p90 = %v with %d beyond, want 7 with 0", v, n)
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty p50 = %v, %d; want NaN, 0", v, n)
	}
}

func TestPercentileSmoothAcrossGap(t *testing.T) {
	// 89 fast samples and 11 slow ones: the order statistic at rank 90
	// is slow, at rank 89 fast. Slowing one fast sample just enough to
	// cross the gap moves a nearest-rank p90 by ~20x; the estimate here
	// must move by a small fraction of the gap.
	base := make([]float64, 100)
	for i := range base {
		base[i] = 10
		if i >= 89 {
			base[i] = 200
		}
	}
	moved := append([]float64(nil), base...)
	moved[0] = 201
	a, _ := percentile(base, 90)
	b, _ := percentile(moved, 90)
	if d := b - a; d <= 0 || d > 0.2*(200-10) {
		t.Errorf("p90 moved by %v across the gap, want (0, %v]", d, 0.2*(200-10))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestValidMetricName(t *testing.T) {
	for _, name := range []string{"setup_s", "cache.llm.hit_rate", "query-p50", "9lives", "a"} {
		if !validMetricName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, name := range []string{"", "_x", ".x", "has space", "slash/name", "ümlaut", long} {
		if validMetricName(name) {
			t.Errorf("%q accepted", name)
		}
	}
}

func TestMetricsRejectsBadInput(t *testing.T) {
	for name, set := range map[string]func(m *metrics){
		"invalid name": func(m *metrics) { m.set("bad name", 1, "s") },
		"duplicate":    func(m *metrics) { m.set("x", 1, "s"); m.set("x", 2, "s") },
		"NaN":          func(m *metrics) { m.set("x", math.NaN(), "s") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			set(newMetrics())
		}()
	}
}

func TestDigestStable(t *testing.T) {
	mk := func(pairs ...any) string {
		var d digest
		for i := 0; i < len(pairs); i += 2 {
			d.add(pairs[i].(string), pairs[i+1].(time.Duration))
		}
		return d.String()
	}
	a := mk("42", 3*time.Second, "tennis, golf", 1500*time.Millisecond)
	// A fixed input has a fixed digest: if this changes, digests printed
	// by earlier commits can no longer be compared with new ones.
	if want := "2:5451b27a0851eefa"; a != want {
		t.Fatalf("digest %s, want %s", a, want)
	}
	if b := mk("42", 3*time.Second, "tennis, golf", 1500*time.Millisecond); a != b {
		t.Errorf("same input, digests %s and %s", a, b)
	}
	for _, other := range []string{
		mk("tennis, golf", 1500*time.Millisecond, "42", 3*time.Second), // order
		mk("42", 3*time.Second, "tennis, golf", 1501*time.Millisecond), // vtime
		mk("42", 3*time.Second, "tennis,golf", 1500*time.Millisecond),  // text
		mk("42\t3000000000\n\"tennis, golf\"", 1500*time.Millisecond),  // framing
	} {
		if other == a {
			t.Errorf("different input gave the same digest %s", a)
		}
	}
}
