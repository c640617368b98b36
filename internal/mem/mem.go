package mem

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/units"
)

// Image is the memory image of one VM, held as the dirty-page counts
// WAVM3 observes (DIRTYPAGES for Eq. 1, and the pages a pre-copy round
// sends) rather than as a per-page bitmap. Pages within one dirtier class
// are exchangeable, so a count is a sufficient state: a dirtier treats
// the dirty pages of a class as occupying the class's first D pages, and
// a write to a uniformly drawn page of the class is new iff the draw
// falls at or past D. That is the bitmap's Markov chain on counts,
// exact in distribution (see Dirtier).
//
// The per-class counts are meaningful only under one dirtier's class
// layout, so an Image must be driven by a single Dirtier for its life. A
// VM keeps the dirtier the toolstack installs at creation (vm.SetDirtier
// is called once, in xen.Toolstack.Create), and a scenario's phases
// compile to separate kernel runs, each of which creates its guests
// afresh (sim.Run).
type Image struct {
	total units.Pages
	ndirt units.Pages
	// hotDirty is the dirty count inside a HotColdDirtier's hot set; the
	// cold set holds ndirt − hotDirty. Uniform dirtiers leave it zero.
	hotDirty units.Pages
}

// NewImage builds a clean memory image of the given size. It errors on
// non-positive sizes.
func NewImage(size units.Bytes) (*Image, error) {
	p := units.PagesOf(size)
	if p <= 0 {
		return nil, fmt.Errorf("mem: image size %v yields no pages", size)
	}
	return &Image{total: p}, nil
}

// TotalPages returns MEM(v), the VM memory size in pages.
func (im *Image) TotalPages() units.Pages { return im.total }

// DirtyPages returns DIRTYPAGES(v,t), the current dirty page count.
func (im *Image) DirtyPages() units.Pages { return im.ndirt }

// DirtyRatio returns DR(v,t) = DIRTYPAGES(v,t) / MEM(v) (Eq. 1).
func (im *Image) DirtyRatio() units.Fraction {
	return units.Fraction(float64(im.ndirt) / float64(im.total))
}

// CleanAll clears every dirty page, as Xen does at the start of each
// pre-copy round after snapshotting the set to send.
func (im *Image) CleanAll() {
	im.ndirt, im.hotDirty = 0, 0
}

// Dirtier is a workload's page-dirtying behaviour: given elapsed wall
// time dt (seconds) it issues the interval's page-write events against
// the image's counts. Each write draws its page exactly as a bitmap
// dirtier would; only the test for "was this page clean" reads the class
// count instead of a bit, which leaves the distribution of every count
// the same as the bitmap process's.
type Dirtier interface {
	// Step issues page writes for a dt-second interval against the image.
	// It returns the number of page-write events issued (counting repeats
	// on already-dirty pages, i.e. memory traffic, not unique pages).
	Step(im *Image, dtSeconds float64) int64
	// Rate returns the nominal page-write rate in pages/second, used to
	// size memory-traffic power.
	Rate() float64
}

// UniformDirtier writes pages uniformly at random over a working set that
// occupies the first WorkingSetFrac of the image — the behaviour of the
// paper's pagedirtier tool, which "continuously writes in memory pages in
// random order" over its 3.8 GB allocation inside the 4 GB VM.
type UniformDirtier struct {
	// PagesPerSecond is the write-event rate.
	PagesPerSecond float64
	// WorkingSetFrac is the fraction of the image the writes span
	// (pagedirtier's 3.8/4.0 ≈ 0.95).
	WorkingSetFrac units.Fraction
	rng            prng
	carry          float64
}

// NewUniformDirtier builds a seeded uniform dirtier.
func NewUniformDirtier(pagesPerSecond float64, workingSet units.Fraction, seed int64) *UniformDirtier {
	return &UniformDirtier{
		PagesPerSecond: pagesPerSecond,
		WorkingSetFrac: workingSet.Clamp(),
		rng:            newPRNG(seed),
	}
}

// prng is the dirtiers' random source: splitmix64, chosen over math/rand
// because the dirtiers draw tens of thousands of page indices per 100 ms
// simulation step — the hottest loop of the whole kernel — and splitmix64
// needs no interface dispatch, no rejection loop and no division while
// passing BigCrush. Same seed, same sequence: the determinism guarantees
// of the campaign layers are unaffected.
type prng struct{ s uint64 }

func newPRNG(seed int64) prng {
	r := prng{s: uint64(seed)}
	r.next() // decorrelate small adjacent seeds before first use
	return r
}

// next returns the next 64 uniformly random bits.
func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uint64n returns a uniform value in [0, n) by multiply-shift reduction
// (Lemire); the bias of skipping the rejection step is below 2^-40 for
// any page span a VM image can have.
func (r *prng) uint64n(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// Step implements Dirtier.
func (u *UniformDirtier) Step(im *Image, dtSeconds float64) int64 {
	if dtSeconds <= 0 || u.PagesPerSecond <= 0 {
		return 0
	}
	span := units.Pages(float64(im.TotalPages()) * float64(u.WorkingSetFrac))
	if span <= 0 {
		return 0
	}
	u.carry += u.PagesPerSecond * dtSeconds
	n := int64(u.carry)
	u.carry -= float64(n)
	span64, d := uint64(span), uint64(im.ndirt)
	for i := int64(0); i < n; i++ {
		d += isNew(u.rng.uint64n(span64), d)
	}
	im.ndirt = units.Pages(d)
	return n
}

// isNew returns 1 when a write to slot idx of a class whose dirty pages
// occupy slots [0, d) dirties a clean page (idx >= d), else 0. Both are
// page counts far below 2^63, so d−idx−1 wraps to a set top bit exactly
// when idx >= d: no branch for the predictor to miss.
func isNew(idx, d uint64) uint64 { return (d - idx - 1) >> 63 }

// Rate implements Dirtier.
func (u *UniformDirtier) Rate() float64 { return u.PagesPerSecond }

// HotColdDirtier concentrates writes on a small hot set with a given
// probability, a closer match for real applications (databases, JVM heaps)
// than uniform writes. Used by the extension experiments.
type HotColdDirtier struct {
	PagesPerSecond float64
	// HotFrac is the fraction of the image forming the hot set.
	HotFrac units.Fraction
	// HotProb is the probability a write lands in the hot set.
	HotProb float64
	rng     prng
	carry   float64
}

// NewHotColdDirtier builds a seeded hot/cold dirtier.
func NewHotColdDirtier(pagesPerSecond float64, hotFrac units.Fraction, hotProb float64, seed int64) *HotColdDirtier {
	if hotProb < 0 {
		hotProb = 0
	}
	if hotProb > 1 {
		hotProb = 1
	}
	return &HotColdDirtier{
		PagesPerSecond: pagesPerSecond,
		HotFrac:        hotFrac.Clamp(),
		HotProb:        hotProb,
		rng:            newPRNG(seed),
	}
}

// Step implements Dirtier.
func (h *HotColdDirtier) Step(im *Image, dtSeconds float64) int64 {
	if dtSeconds <= 0 || h.PagesPerSecond <= 0 {
		return 0
	}
	total := im.TotalPages()
	hot := units.Pages(float64(total) * float64(h.HotFrac))
	if hot <= 0 {
		hot = 1
	}
	h.carry += h.PagesPerSecond * dtSeconds
	n := int64(h.carry)
	h.carry -= float64(n)
	hot64, total64 := uint64(hot), uint64(total)
	dh, dc := uint64(im.hotDirty), uint64(im.ndirt-im.hotDirty)
	// Each write makes two draws: the first picks the hot set with
	// probability HotProb, the second the page, within the hot set or
	// over the whole image. Page p < hot is slot p of the hot class, any
	// other page slot p−hot of the cold class. The loop has no branch:
	// the hot/cold split is taken with masks, so a 90/10 split costs no
	// mispredictions.
	below := hotBelow(h.HotProb)
	for i := int64(0); i < n; i++ {
		toHot := (h.rng.next()>>11 - below) >> 63
		p := h.rng.uint64n(total64 ^ (total64^hot64)&-toHot)
		inHot := (p - hot64) >> 63
		dh += isNew(p, dh) & inHot
		dc += isNew(p-hot64, dc) &^ inHot
	}
	im.hotDirty, im.ndirt = units.Pages(dh), units.Pages(dh+dc)
	return n
}

// hotBelow turns a probability into a threshold on a draw's top 53 bits:
// x>>11 < hotBelow(p) exactly when the draw read as a 53-bit fraction
// of 1, float64(x>>11)·2^-53, is below p. Scaling by 2^53 is exact, so
// this is the float comparison without the conversion.
func hotBelow(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// Rate implements Dirtier.
func (h *HotColdDirtier) Rate() float64 { return h.PagesPerSecond }

// NoDirtier is the dirtying behaviour of an idle or CPU-only workload:
// nothing gets written.
type NoDirtier struct{}

// Step implements Dirtier.
func (NoDirtier) Step(*Image, float64) int64 { return 0 }

// Rate implements Dirtier.
func (NoDirtier) Rate() float64 { return 0 }

// TrafficGBs converts a page-write rate into memory traffic in GB/s for
// the ground-truth power model.
func TrafficGBs(pagesPerSecond float64) float64 {
	return pagesPerSecond * float64(units.PageSize) / 1e9
}
