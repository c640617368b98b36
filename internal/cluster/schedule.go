package cluster

import (
	"math"
	"sort"
	"time"
)

// scheduler finds and fires the flights' lifecycle events — head end,
// transfer completion, tail end — for the engine's event loop. The loop
// owns everything else that happens at an instant (ticks, explicit
// dispatches, phase shifts, failures) and asks the scheduler only about
// flights. newEngine installs the heap scheduler below; the equivalence
// tests install a linear-scan reference behind the same seam.
type scheduler interface {
	// next returns the earliest instant a flight event is due, if any
	// flight is scheduled. Transfers stalled by an outage have none.
	next() (time.Duration, bool)
	// advance drains the transfers from the engine's clock to t; the
	// engine moves its clock afterwards.
	advance(t time.Duration)
	// fire moves every flight due at t through its due lifecycle
	// phases, in dispatch order, landing the ones that complete.
	fire(t time.Duration)
	// enqueue schedules a committed flight from its head phase.
	enqueue(f *flight)
	// drop unschedules an aborted flight.
	drop(f *flight)
}

// This file is the engine's O(log F) scheduling core. The discrete-event
// loop needs, per event, the earliest instant anything happens and the
// set of flights due at it. Head and tail phases have fixed transition
// instants, so they live in one indexed min-heap keyed by absolute time.
// Transfer phases share links: a flight's completion instant moves every
// time the occupancy of its switch changes, so transfers are kept per
// switch, ordered by *virtual* completion time, which never moves.
//
// Virtual time makes equal-share processor sharing heap-friendly while
// reproducing the linear engine's integer arithmetic exactly. Each
// switch accumulates virt += dt/occ at every clock advance (truncating
// integer division, occ = transfers on the switch — the same floor the
// linear engine applies to every flight's remaining work individually,
// so remaining work == virtDone − virt bit-for-bit). A transfer joining
// at virtual time v with intrinsic work w completes when virt reaches
// v+w; since every co-resident transfer drains at the same rate, the
// completion *order* on a switch is fixed at admission, and the
// per-switch heap keys (virtDone) never need re-projection. Only the
// switch's next completion *instant* — now + (minVirtDone−virt)·occ —
// moves when occupancy changes, and that is recomputed in O(1) per
// switch per event instead of O(F) per flight.
type swState struct {
	// virt is the cumulative equal-share virtual service time: how much
	// intrinsic transfer work one flight on this switch has received
	// since the switch first carried traffic.
	virt time.Duration
	// heap holds the in-transfer flights ordered by virtDone. Its length
	// is the switch occupancy — the O(1) counter the sharing arithmetic
	// divides by.
	heap flightHeap
	// active marks membership in the heap scheduler's active list.
	active bool
	// down marks an injected outage window: advance() freezes the
	// switch's virtual clock (transfers stall with their remaining work
	// intact) and checkMove refuses new admissions until restore.
	down bool
}

// occ is the switch occupancy: how many transfers currently share the
// link.
func (s *swState) occ() time.Duration {
	return time.Duration(len(s.heap.fs))
}

// nextAt projects the switch's earliest transfer completion under the
// current occupancy. Valid only while the switch carries traffic.
func (s *swState) nextAt(now time.Duration) time.Duration {
	return now + (s.heap.fs[0].virtDone-s.virt)*s.occ()
}

// flightHeap is an indexed binary min-heap of flights. One
// implementation serves both keys — absolute due time (head/tail
// events) and virtual completion time (per-switch transfers) — because
// a flight sits in at most one heap at a time: `key` selects the field.
// Ties break on dispatch index, though nothing depends on it: fire
// collects every flight due at an instant and processes them in
// dispatch order regardless of pop order.
type flightHeap struct {
	fs  []*flight
	key func(*flight) time.Duration
}

func (h *flightHeap) less(a, b *flight) bool {
	ka, kb := h.key(a), h.key(b)
	if ka != kb {
		return ka < kb
	}
	return a.idx < b.idx
}

// push inserts a flight and records its position for O(log n) removal.
func (h *flightHeap) push(f *flight) {
	h.fs = append(h.fs, f)
	f.heapIdx = len(h.fs) - 1
	h.up(f.heapIdx)
}

// pop removes and returns the minimum flight.
func (h *flightHeap) pop() *flight {
	f := h.fs[0]
	last := len(h.fs) - 1
	h.fs[0] = h.fs[last]
	h.fs[0].heapIdx = 0
	h.fs[last] = nil
	h.fs = h.fs[:last]
	if last > 0 {
		h.down(0)
	}
	f.heapIdx = -1
	return f
}

// remove deletes a flight from any heap position in O(log n) via its
// tracked index — the abort path's counterpart to pop.
func (h *flightHeap) remove(f *flight) {
	i := f.heapIdx
	last := len(h.fs) - 1
	if i != last {
		h.fs[i] = h.fs[last]
		h.fs[i].heapIdx = i
	}
	h.fs[last] = nil
	h.fs = h.fs[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	f.heapIdx = -1
}

func (h *flightHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.fs[i], h.fs[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *flightHeap) down(i int) {
	n := len(h.fs)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.fs[l], h.fs[small]) {
			small = l
		}
		if r < n && h.less(h.fs[r], h.fs[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *flightHeap) swap(i, j int) {
	h.fs[i], h.fs[j] = h.fs[j], h.fs[i]
	h.fs[i].heapIdx = i
	h.fs[j].heapIdx = j
}

// dueKey reads the fixed-instant key of head/tail events.
func dueKey(f *flight) time.Duration { return f.due }

// virtKey reads the virtual-completion key of transfer events.
func virtKey(f *flight) time.Duration { return f.virtDone }

// switchState returns (creating on first use) the scheduling state of a
// link domain.
func (e *engine) switchState(name string) *swState {
	if s, ok := e.switches[name]; ok {
		return s
	}
	s := &swState{heap: flightHeap{key: virtKey}}
	e.switches[name] = s
	return s
}

// heapSched is the engine's scheduler: fixed-instant events in one
// indexed min-heap, transfers per switch in virtual time (the swState
// heaps of the engine's switches).
type heapSched struct {
	e      *engine
	timed  flightHeap
	active []*swState // switches carrying traffic
	due    []*flight  // per-fire scratch, reused
}

func newHeapSched(e *engine) *heapSched {
	return &heapSched{e: e, timed: flightHeap{key: dueKey}}
}

// next returns the top of the fixed-instant heap and each
// traffic-carrying switch's projected next transfer completion (O(1)
// per switch). It first drops the switches whose last transfer
// completed or aborted since the previous call.
func (s *heapSched) next() (time.Duration, bool) {
	s.compactActive()
	t, ok := time.Duration(math.MaxInt64), false
	if len(s.timed.fs) > 0 {
		t, ok = s.timed.fs[0].due, true
	}
	for _, sw := range s.active {
		if sw.down {
			continue // stalled: the outage froze this link's clock
		}
		if c := sw.nextAt(s.e.now); c < t {
			t = c
		}
		ok = true
	}
	return t, ok
}

// advance drains every traffic-carrying switch by its equal share of
// the elapsed span: virt += dt/occ, one integer division per switch
// instead of one per flight. Occupancy is constant between events, so
// the division is the exact floor the linear reference applies to each
// flight's remaining work; a due flight's remaining work (virtDone −
// virt) reaches exactly zero.
func (s *heapSched) advance(t time.Duration) {
	dt := t - s.e.now
	if dt <= 0 {
		return
	}
	for _, sw := range s.active {
		if sw.down {
			continue // outage: virtual time freezes, work is preserved
		}
		sw.virt += dt / sw.occ()
	}
}

// fire collects every due flight — fixed-instant head/tail events from
// the timed heap, transfer completions from each active switch's
// virtual-time heap — then processes them in dispatch order, matching
// the linear reference.
func (s *heapSched) fire(t time.Duration) {
	s.due = s.due[:0]
	for len(s.timed.fs) > 0 && s.timed.fs[0].due <= t {
		s.due = append(s.due, s.timed.pop())
	}
	for _, sw := range s.active {
		for len(sw.heap.fs) > 0 && sw.heap.fs[0].virtDone <= sw.virt {
			s.due = append(s.due, sw.heap.pop())
		}
	}
	if len(s.due) > 1 {
		sort.Slice(s.due, func(i, j int) bool { return s.due[i].idx < s.due[j].idx })
	}
	for _, f := range s.due {
		s.transition(f, t)
	}
}

// transition advances one flight through every lifecycle phase due at
// instant t (a flight may cascade through zero-span phases within one
// instant), re-registering it wherever it comes to rest. Callers hand
// in flights already removed from their heap.
func (s *heapSched) transition(f *flight, t time.Duration) {
	for {
		switch f.state {
		case fHead:
			if f.headEnd > t {
				s.timedPush(f, f.headEnd)
				return
			}
			f.state = fTransfer
			if f.work > 0 {
				sw := s.e.switchState(f.sw)
				f.virtDone = sw.virt + f.work
				sw.heap.push(f)
				s.activate(sw)
				return
			}
			// Zero-length transfer: complete in the same instant, exactly
			// like the linear loop's cascade.
		case fTransfer:
			// Only reached when the transfer is complete at t: popped from
			// its switch heap by fire, or cascading with zero work.
			f.transferEnd = t
			f.state = fTail
			f.end = t + f.tailSpan
		default:
			if f.end > t {
				s.timedPush(f, f.end)
				return
			}
			s.e.land(f, t)
			return
		}
	}
}

// enqueue registers a committed flight's head end.
func (s *heapSched) enqueue(f *flight) { s.timedPush(f, f.headEnd) }

// drop removes an aborted flight from whichever heap holds it.
func (s *heapSched) drop(f *flight) {
	if f.state == fTransfer {
		s.e.switchState(f.sw).heap.remove(f)
	} else {
		s.timed.remove(f)
	}
}

// activate puts a switch on the active list; advance drains virtual
// time only for listed switches, so activation must accompany the first
// transfer admitted after an idle span.
func (s *heapSched) activate(sw *swState) {
	if !sw.active {
		sw.active = true
		s.active = append(s.active, sw)
	}
}

// compactActive drops switches whose heaps emptied.
func (s *heapSched) compactActive() {
	kept := s.active[:0]
	for _, sw := range s.active {
		if len(sw.heap.fs) > 0 {
			kept = append(kept, sw)
		} else {
			sw.active = false
		}
	}
	// Let dropped tails be collected.
	for i := len(kept); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = kept
}

// timedPush registers a flight's next fixed-instant event (head end or
// tail end).
func (s *heapSched) timedPush(f *flight, at time.Duration) {
	f.due = at
	s.timed.push(f)
}
