package cluster

import (
	"math"
	"time"

	"repro/internal/units"
)

// This file holds the engine's executable specifications, which the
// equivalence tests check the production paths against.
//
// linearSched is the original linear-scan scheduler — O(F) per-event
// sweeps with O(F) occupancy counts, O(F²) per event — installed behind
// the scheduler seam in place of the heap scheduler (see runWith). Both
// must produce bit-identical reports on any fleet. It shares dispatch,
// lowering, planning, landing, failures and reporting with the heap
// path; only event finding, clock advancing and flight bookkeeping
// differ.
type linearSched struct {
	e       *engine
	flights []*flight // in dispatch order
}

// occupancy counts the transfers currently sharing a switch.
func (s *linearSched) occupancy(sw string) int64 {
	n := int64(0)
	for _, f := range s.flights {
		if f.state == fTransfer && f.sw == sw {
			n++
		}
	}
	return n
}

// flightEventTime projects a flight's next transition instant under the
// current link occupancy.
func (s *linearSched) flightEventTime(f *flight) time.Duration {
	switch f.state {
	case fHead:
		return f.headEnd
	case fTransfer:
		return s.e.now + f.work*time.Duration(s.occupancy(f.sw))
	default:
		return f.end
	}
}

// next returns the earliest flight event by scanning every flight.
func (s *linearSched) next() (time.Duration, bool) {
	t, ok := time.Duration(math.MaxInt64), false
	for _, f := range s.flights {
		if f.state == fTransfer && s.e.switchDown(f.sw) {
			continue // stalled: the outage froze this link's clock
		}
		if c := s.flightEventTime(f); c < t {
			t = c
		}
		ok = true
	}
	return t, ok
}

// advance drains every in-flight transfer by its equal share of the
// elapsed span. Occupancy is constant between events, so the sharing
// arithmetic is exact integer division; a due flight's remaining work
// reaches exactly zero.
func (s *linearSched) advance(t time.Duration) {
	dt := t - s.e.now
	if dt <= 0 {
		return
	}
	for _, f := range s.flights {
		if f.state != fTransfer {
			continue
		}
		if s.e.switchDown(f.sw) {
			continue // outage: the clock freezes, work is preserved
		}
		f.work -= dt / time.Duration(s.occupancy(f.sw))
		if f.work < 0 {
			f.work = 0
		}
	}
}

// transition advances one flight through every lifecycle phase due at
// instant t (a flight may cascade through zero-span phases within one
// instant) and reports whether it landed.
func (s *linearSched) transition(f *flight, t time.Duration) (landed bool) {
	for {
		switch f.state {
		case fHead:
			if f.headEnd > t {
				return false
			}
			f.state = fTransfer
		case fTransfer:
			if f.work > 0 {
				return false
			}
			f.transferEnd = t
			f.state = fTail
			f.end = t + f.tailSpan
		default:
			if f.end > t {
				return false
			}
			s.e.land(f, t)
			return true
		}
	}
}

// fire transitions every flight, in dispatch order.
func (s *linearSched) fire(t time.Duration) {
	kept := s.flights[:0]
	for _, f := range s.flights {
		if !s.transition(f, t) {
			kept = append(kept, f)
		}
	}
	s.flights = kept
}

func (s *linearSched) enqueue(f *flight) { s.flights = append(s.flights, f) }

func (s *linearSched) drop(f *flight) {
	for i, g := range s.flights {
		if g == f {
			s.flights = append(s.flights[:i], s.flights[i+1:]...)
			return
		}
	}
}

// factor is the specification of a VM's intensity at cluster time t,
// which the engine's phase cursor (vmRT.factor) reproduces: the phase
// timeline is walked front to back, and the final factor holds once the
// timeline is exhausted. VMs without phases run at factor 1.
func (v VM) factor(t time.Duration) float64 {
	if len(v.Phases) == 0 {
		return 1
	}
	off := t
	for _, p := range v.Phases {
		if off < p.Duration {
			return p.Factor(float64(off) / float64(p.Duration))
		}
		off -= p.Duration
	}
	return v.Phases[len(v.Phases)-1].Factor(1)
}

// busyAt returns the VM's CPU demand at cluster time t.
func (v VM) busyAt(t time.Duration) float64 {
	return v.BusyVCPUs * v.factor(t)
}

// dirtyAt returns the VM's dirty ratio at cluster time t, clamped to a
// physical fraction.
func (v VM) dirtyAt(t time.Duration) units.Fraction {
	return units.Fraction(float64(v.DirtyRatio) * v.factor(t)).Clamp()
}
