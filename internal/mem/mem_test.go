package mem

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func newImg(t *testing.T, size units.Bytes) *Image {
	t.Helper()
	im, err := NewImage(size)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestNewImage(t *testing.T) {
	im := newImg(t, 4*units.GiB)
	if im.TotalPages() != 1<<20 {
		t.Errorf("4 GiB image = %d pages, want %d", im.TotalPages(), 1<<20)
	}
	if im.DirtyPages() != 0 || im.DirtyRatio() != 0 {
		t.Error("new image must be clean")
	}
	if _, err := NewImage(0); err == nil {
		t.Error("zero-size image must fail")
	}
	if _, err := NewImage(-5); err == nil {
		t.Error("negative-size image must fail")
	}
}

// bitmap is the per-page dirty bitmap the counts replace, kept here as
// the oracle: replaying a dirtier's page draws on it is the process the
// counts must match in distribution.
type bitmap struct {
	words []uint64
	ndirt int
}

func newBitmap(pages units.Pages) *bitmap {
	return &bitmap{words: make([]uint64, (pages+63)/64)}
}

func (b *bitmap) dirty(p uint64) {
	w, m := p>>6, uint64(1)<<(p&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.ndirt++
	}
}

// float64v is the hot/cold draw as the oracle makes it: a
// uniform value in [0, 1) with 53 random bits, compared to HotProb.
func (r *prng) float64v() float64 {
	return float64(r.next()>>11) * 0x1.0p-53
}

// stepUniform issues n writes with UniformDirtier's draws.
func (b *bitmap) stepUniform(rng *prng, span uint64, n int64) {
	for i := int64(0); i < n; i++ {
		b.dirty(rng.uint64n(span))
	}
}

// stepHotCold issues n writes with HotColdDirtier's draws.
func (b *bitmap) stepHotCold(rng *prng, hot, total uint64, hotProb float64, n int64) {
	for i := int64(0); i < n; i++ {
		if rng.float64v() < hotProb {
			b.dirty(rng.uint64n(hot))
		} else {
			b.dirty(rng.uint64n(total))
		}
	}
}

// TestDirtyCountMatchesBitmapOracle is the exactness claim of the
// counts: over many seeds, the distribution of DirtyPages after k steps
// matches the bitmap process's (two-sample Kolmogorov–Smirnov at
// α = 0.001), and both sample means match the closed-form occupancy
// mean Σ_class N(1 − (1 − q)^n), q being the per-write hit probability
// of one page of the class.
func TestDirtyCountMatchesBitmapOracle(t *testing.T) {
	const (
		seeds = 2000
		size  = 4 * units.MiB // 1024 pages
		steps = 10
	)
	total := units.PagesOf(size)
	// Class sizes are powers of two, so the fractions the dirtiers take
	// map back to exactly these page counts.
	uniform := func(rate float64, span uint64) oracleCase {
		return oracleCase{
			newD: func(seed int64) Dirtier {
				return NewUniformDirtier(rate, units.Fraction(span)/units.Fraction(total), seed)
			},
			cover: func(n int64) float64 { return occupancy(float64(span), 1/float64(span), n) },
			orc:   func(b *bitmap, rng *prng, n int64) { b.stepUniform(rng, span, n) },
		}
	}
	hotCold := func(rate float64, hot uint64, prob float64) oracleCase {
		return oracleCase{
			newD: func(seed int64) Dirtier {
				return NewHotColdDirtier(rate, units.Fraction(hot)/units.Fraction(total), prob, seed)
			},
			cover: func(n int64) float64 {
				qc := (1 - prob) / float64(total)
				return occupancy(float64(hot), prob/float64(hot)+qc, n) +
					occupancy(float64(uint64(total)-hot), qc, n)
			},
			orc: func(b *bitmap, rng *prng, n int64) { b.stepHotCold(rng, hot, uint64(total), prob, n) },
		}
	}
	cases := []struct {
		name string
		oracleCase
	}{
		{"uniform", uniform(1000, 768)},
		// A hot set filling up while the cold set stays sparse ...
		{"hotcold", hotCold(300, 128, 0.9)},
		// ... and a cold set holding more dirty pages than the hot set
		// has pages, so a cold draw's offset past the hot set matters.
		{"hotcold-cold-fill", hotCold(2000, 256, 0.5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts := make([]float64, seeds)
			oracle := make([]float64, seeds)
			var writes int64
			for s := int64(0); s < seeds; s++ {
				im := newImg(t, size)
				d := tc.newD(s + 1)
				var n int64
				for k := 0; k < steps; k++ {
					n += d.Step(im, 0.1)
				}
				if s > 0 && n != writes {
					t.Fatalf("seed %d issued %d writes, seed 1 issued %d", s+1, n, writes)
				}
				writes = n
				counts[s] = float64(im.DirtyPages())

				// Disjoint seeds: the two samples must be independent.
				b, rng := newBitmap(total), newPRNG(seeds+s+1)
				tc.orc(b, &rng, n)
				oracle[s] = float64(b.ndirt)
			}
			if ks, crit := ksStatistic(counts, oracle), 1.95*math.Sqrt(2.0/seeds); ks > crit {
				t.Errorf("KS distance to the bitmap oracle = %.4f, above the α=0.001 bound %.4f", ks, crit)
			}
			want := tc.cover(writes)
			for _, sample := range []struct {
				who string
				xs  []float64
			}{{"counts", counts}, {"bitmap oracle", oracle}} {
				m, sd := meanSD(sample.xs)
				if se := sd / math.Sqrt(seeds); math.Abs(m-want) > 5*se+1e-9 {
					t.Errorf("%s mean DirtyPages = %.2f, closed form %.2f (±5·SE = %.2f)", sample.who, m, want, 5*se)
				}
			}
		})
	}
}

// oracleCase is one dirtier configuration of the oracle test: the
// dirtier under test, its closed-form mean DirtyPages after n writes,
// and the same writes replayed on the bitmap.
type oracleCase struct {
	newD  func(seed int64) Dirtier
	cover func(n int64) float64
	orc   func(b *bitmap, rng *prng, n int64)
}

// occupancy is the expected number of distinct pages hit among n pages
// when n writes each hit a given page with probability q.
func occupancy(pages, q float64, n int64) float64 {
	return pages * (1 - math.Pow(1-q, float64(n)))
}

// ksStatistic returns the two-sample Kolmogorov–Smirnov distance: the
// largest gap between the samples' empirical CDFs, evaluated after each
// run of tied values.
func ksStatistic(a, b []float64) float64 {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	var i, j int
	var d float64
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// TestHotBelowMatchesFloatCompare pins the integer hot/cold test to the
// float comparison the oracle makes, draw for draw.
func TestHotBelowMatchesFloatCompare(t *testing.T) {
	rng := newPRNG(9)
	for _, p := range []float64{0, 1e-9, 0.1, 0.5, 0.9, 1 - 0x1p-53, 1} {
		below := hotBelow(p)
		for i := 0; i < 100_000; i++ {
			x := rng.next()
			if got, want := x>>11 < below, float64(x>>11)*0x1.0p-53 < p; got != want {
				t.Fatalf("p=%v x=%#x: integer test %v, float test %v", p, x, got, want)
			}
		}
		// The edges of the 53-bit range.
		for _, top := range []uint64{0, below - 1, below, 1<<53 - 1} {
			if top >= 1<<53 {
				continue
			}
			if got, want := top < below, float64(top)*0x1.0p-53 < p; got != want {
				t.Fatalf("p=%v top=%d: integer test %v, float test %v", p, top, got, want)
			}
		}
	}
}

func TestCleanAll(t *testing.T) {
	im := newImg(t, 16*units.MiB)
	d := NewHotColdDirtier(50_000, 0.1, 0.9, 5)
	d.Step(im, 0.1)
	if im.DirtyPages() == 0 || im.hotDirty == 0 {
		t.Fatal("no pages dirtied")
	}
	im.CleanAll()
	if im.DirtyPages() != 0 || im.hotDirty != 0 || im.DirtyRatio() != 0 {
		t.Errorf("CleanAll left %d dirty pages (%d hot)", im.DirtyPages(), im.hotDirty)
	}
	// The next window starts from a clean image: it cannot dirty more
	// pages than it writes.
	if n := d.Step(im, 0.001); int64(im.DirtyPages()) > n {
		t.Errorf("after CleanAll, %d writes dirtied %d pages", n, im.DirtyPages())
	}
}

func TestDirtyRatioInvariant(t *testing.T) {
	// Property: under arbitrary step lengths and CleanAll calls, every
	// class count stays within its class, so 0 ≤ DR ≤ 1.
	f := func(ops []uint16) bool {
		u, errU := NewImage(256 * units.KiB) // 64 pages
		h, errH := NewImage(256 * units.KiB)
		if errU != nil || errH != nil {
			return false
		}
		ud := NewUniformDirtier(2000, 0.5, int64(len(ops)))
		hd := NewHotColdDirtier(2000, 0.25, 0.8, int64(len(ops)))
		for _, op := range ops {
			if op&0x8000 != 0 {
				u.CleanAll()
				h.CleanAll()
				continue
			}
			dt := float64(op%100) / 1000
			ud.Step(u, dt)
			hd.Step(h, dt)
			if u.DirtyPages() > 32 || u.hotDirty != 0 {
				return false
			}
			if h.hotDirty > 16 || h.DirtyPages()-h.hotDirty > 48 {
				return false
			}
			for _, dr := range []units.Fraction{u.DirtyRatio(), h.DirtyRatio()} {
				if dr < 0 || dr > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformDirtierReachesTargetRatio(t *testing.T) {
	// pagedirtier at 95% working set: given enough writes, DR converges to
	// ≈ the working-set fraction and never exceeds it.
	im := newImg(t, 16*units.MiB) // 4096 pages
	d := NewUniformDirtier(100_000, 0.95, 1)
	for i := 0; i < 100; i++ {
		d.Step(im, 0.1)
	}
	dr := float64(im.DirtyRatio())
	if dr < 0.90 || dr > 0.951 {
		t.Errorf("DR after saturation = %v, want ≈0.95", dr)
	}
}

func TestUniformDirtierRateAccounting(t *testing.T) {
	im := newImg(t, 16*units.MiB)
	d := NewUniformDirtier(1000, 0.5, 2)
	var total int64
	for i := 0; i < 10; i++ {
		total += d.Step(im, 0.1)
	}
	// 1000 pages/s for 1 s total: the carry accumulator must not lose
	// events across fractional steps.
	if total != 1000 {
		t.Errorf("issued %d write events, want 1000", total)
	}
	if d.Rate() != 1000 {
		t.Errorf("Rate = %v, want 1000", d.Rate())
	}
}

func TestUniformDirtierEdgeCases(t *testing.T) {
	im := newImg(t, 16*units.MiB)
	d := NewUniformDirtier(1000, 0.5, 3)
	if n := d.Step(im, 0); n != 0 {
		t.Error("zero dt must issue nothing")
	}
	if n := d.Step(im, -1); n != 0 {
		t.Error("negative dt must issue nothing")
	}
	zero := NewUniformDirtier(0, 0.5, 3)
	if n := zero.Step(im, 1); n != 0 {
		t.Error("zero rate must issue nothing")
	}
	tiny := NewUniformDirtier(1000, 0, 3)
	if n := tiny.Step(im, 1); n != 0 {
		t.Error("zero working set must issue nothing")
	}
}

func TestUniformDirtierDeterminism(t *testing.T) {
	run := func() []units.Pages {
		im, _ := NewImage(1 * units.MiB)
		d := NewUniformDirtier(500, 0.9, 42)
		var trace []units.Pages
		for i := 0; i < 5; i++ {
			d.Step(im, 0.3)
			trace = append(trace, im.DirtyPages())
		}
		return trace
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("non-deterministic dirty counts: %v vs %v", a, b)
	}
}

func TestHotColdDirtierDeterminism(t *testing.T) {
	run := func() [2]units.Pages {
		im, _ := NewImage(1 * units.MiB)
		d := NewHotColdDirtier(500, 0.1, 0.9, 42)
		d.Step(im, 1)
		return [2]units.Pages{im.DirtyPages(), im.hotDirty}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic dirty counts: %v vs %v", a, b)
	}
}

func TestHotColdDirtierConcentration(t *testing.T) {
	im := newImg(t, 16*units.MiB) // 4096 pages
	d := NewHotColdDirtier(50_000, 0.1, 0.9, 7)
	d.Step(im, 1)
	hot := units.Pages(float64(im.TotalPages()) * 0.1)
	// With 90% of 50k writes in a 409-page hot set, the hot set saturates.
	if im.hotDirty < hot*95/100 || im.hotDirty > hot {
		t.Errorf("hot set %d/%d dirty, want nearly full", im.hotDirty, hot)
	}
	// Cold pages must also see some writes.
	if im.DirtyPages()-im.hotDirty <= 0 {
		t.Error("cold set received no writes")
	}
	if d.Rate() != 50_000 {
		t.Errorf("Rate = %v", d.Rate())
	}
}

func TestHotColdClampsProb(t *testing.T) {
	d := NewHotColdDirtier(10, 0.5, 7.5, 1)
	if d.HotProb != 1 {
		t.Errorf("HotProb = %v, want clamped to 1", d.HotProb)
	}
	d = NewHotColdDirtier(10, 0.5, -2, 1)
	if d.HotProb != 0 {
		t.Errorf("HotProb = %v, want clamped to 0", d.HotProb)
	}
}

func TestNoDirtier(t *testing.T) {
	im := newImg(t, 1*units.MiB)
	var d NoDirtier
	if d.Step(im, 100) != 0 || d.Rate() != 0 {
		t.Error("NoDirtier must do nothing")
	}
	if im.DirtyPages() != 0 {
		t.Error("NoDirtier dirtied pages")
	}
}

func TestTrafficGBs(t *testing.T) {
	// 1e9/4096 pages/s × 4096 B/page = 1 GB/s.
	got := TrafficGBs(1e9 / 4096)
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("TrafficGBs = %v, want 1", got)
	}
}

// pagedirtier95 is the quick sweep's top pagedirtier rate on a 4 GiB
// guest: a 95% working set re-dirtied every ~4 s.
const pagedirtier95 = (1 << 20) * 0.95 / 4

// benchmarkDirtier steps d over a 4 GiB image in 100 ms kernel steps,
// ending each 3 s log-dirty window with CleanAll as a pre-copy round
// does, and reports the cost per page write.
func benchmarkDirtier(b *testing.B, d Dirtier) {
	im, err := NewImage(4 * units.GiB)
	if err != nil {
		b.Fatal(err)
	}
	var writes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writes += d.Step(im, 0.1)
		if i%30 == 29 {
			im.CleanAll()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/write")
}

func BenchmarkDirtierStepUniform(b *testing.B) {
	benchmarkDirtier(b, NewUniformDirtier(pagedirtier95, 0.95, 1))
}

func BenchmarkDirtierStepHotCold(b *testing.B) {
	benchmarkDirtier(b, NewHotColdDirtier(pagedirtier95, 0.1, 0.9, 1))
}
