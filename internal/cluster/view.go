package cluster

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/consolidation"
	"repro/internal/units"
)

// This file maintains the engine's persistent consolidation.View — the
// struct-of-arrays policy snapshot — incrementally under an
// event-driven dirty set, so a planning round at fleet scale touches
// only the hosts events actually changed since the last tick.
//
// Invariants (checked every planning round, in the equivalence tests,
// against a view built afresh from the engine's AoS snapshot):
//
//   - Every event that changes a host's slot membership or demand marks
//     it dirty: dispatch commit (destination gains a reservation), land
//     (source loses the guest, destination converts its reservation),
//     abort (destination loses the reservation), crash (Down flips).
//   - Hosts with phase-driven residents or reservations have
//     continuously varying demand; they are re-marked every tick, which
//     also covers every phase-transition event.
//   - A refreshed host re-sums its aggregates in slot order (never
//     incremental subtraction), so clean hosts' cached sums are
//     bit-identical to a full rebuild at the same instant.
//   - Order repair finds each refreshed host's old position by binary
//     search before the refresh, compacts those entries out (the
//     entries whose keys did not change stay sorted), sorts the
//     refreshed hosts by their new keys, and inserts each at its
//     binary-searched position, moving the clean entries once. The
//     engine's hosts are name-sorted, so the (busy, index) key is the
//     policies' (busy, name) key; it is a unique total order, and the
//     repair reproduces a full sort exactly.

// markHostDirty queues a host for refresh at the next planning tick.
func (e *engine) markHostDirty(h *hostRT) {
	if !e.dirtyMark[h.vi] {
		e.dirtyMark[h.vi] = true
		e.dirty = append(e.dirty, h.vi)
	}
}

// markHostVarying registers a host as holding phase-driven demand; it
// is refreshed every tick until its phased population drops to zero.
func (e *engine) markHostVarying(h *hostRT) {
	if !h.varyMark {
		h.varyMark = true
		e.varying = append(e.varying, h.vi)
	}
}

// rebuildView builds the whole view from the runtime state at time t,
// once, when the engine is built. Each host's range grows from an empty
// count through refreshHostView, the view's one writer; the arrays are
// sized up front, so a 100k-host build grows none of them.
func (e *engine) rebuildView(t time.Duration) {
	v := &e.pview
	n, slots := len(e.hosts), 0
	for _, h := range e.hosts {
		slots += len(h.vms) + len(h.incoming)
	}
	v.HostName = make([]string, n)
	v.Threads = make([]int, n)
	v.MemCap = make([]units.Bytes, n)
	v.IdlePower = make([]units.Watts, n)
	v.Down = make([]bool, n)
	v.Busy = make([]float64, n)
	v.Mem = make([]units.Bytes, n)
	v.VMStart = make([]int32, n)
	v.VMCount = make([]int32, n)
	v.VMName = make([]string, 0, slots)
	v.VMMem = make([]units.Bytes, 0, slots)
	v.VMBusy = make([]float64, 0, slots)
	v.VMDirty = make([]units.Fraction, 0, slots)
	for i, h := range e.hosts {
		v.HostName[i], v.Threads[i], v.MemCap[i], v.IdlePower[i] = h.Name, h.Threads, h.MemBytes, h.IdlePower
		e.refreshHostView(h, t)
	}
	// The engine's hosts are name-sorted (newEngine), so index order is
	// name order — the precondition for the policies' order-indexed
	// target scan, and what lets Order sort by (busy, index).
	v.NameOrdered = true
	v.Order = make([]int32, n)
	for i := range v.Order {
		v.Order[i] = int32(i)
	}
	slices.SortFunc(v.Order, func(a, b int32) int { return viewCmp(v, a, b) })
}

// refreshHostView rewrites one host's view slots and aggregates at
// time t. Slots are rewritten in place while the membership count fits
// the host's current arena range; a grown host relocates its range to
// the arena tail (compactArena reclaims the stale slots).
func (e *engine) refreshHostView(h *hostRT, t time.Duration) {
	v := &e.pview
	i := h.vi
	n := int32(len(h.vms) + len(h.incoming))
	old := v.VMCount[i]
	s := v.VMStart[i]
	if n > old {
		s = int32(len(v.VMName))
		v.VMStart[i] = s
		grow := int(n)
		v.VMName = append(v.VMName, make([]string, grow)...)
		v.VMMem = append(v.VMMem, make([]units.Bytes, grow)...)
		v.VMBusy = append(v.VMBusy, make([]float64, grow)...)
		v.VMDirty = append(v.VMDirty, make([]units.Fraction, grow)...)
	}
	v.VMCount[i] = n
	e.viewLive += int(n - old)
	k := s
	busy := 0.0
	var mem units.Bytes
	for _, g := range h.vms {
		b := g.busyAt(t)
		v.VMName[k], v.VMMem[k], v.VMBusy[k], v.VMDirty[k] = g.Name, g.MemBytes, b, g.dirtyAt(t)
		busy += b
		mem += g.MemBytes
		k++
	}
	for _, f := range h.incoming {
		b := f.vm.busyAt(t)
		v.VMName[k], v.VMMem[k], v.VMBusy[k], v.VMDirty[k] = f.resName, f.vm.MemBytes, b, f.vm.dirtyAt(t)
		busy += b
		mem += f.vm.MemBytes
		k++
	}
	v.Busy[i], v.Mem[i] = busy, mem
	v.Down[i] = h.down
}

// viewCmp orders host indices by the (busy, index) key, which is the
// policies' (busy, name) key on the engine's name-sorted hosts.
// cmp.Compare orders a NaN demand (the Go API does not reject one)
// first, so the key stays a total order and Order stays searchable.
func viewCmp(v *consolidation.View, a, b int32) int {
	if c := cmp.Compare(v.Busy[a], v.Busy[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// viewTick folds the varying set into the dirty set, refreshes every
// dirty host at time t, and repairs Order in O(dirty · log hosts) plus
// one pass of block copies. It reports whether anything was refreshed —
// a clean tick's view (and therefore its plan) is identical to the last
// one.
func (e *engine) viewTick(t time.Duration) bool {
	// Varying hosts (phased residents or phased reservations) refresh
	// every tick; hosts whose phased population dropped to zero leave
	// the set here.
	keep := e.varying[:0]
	for _, vi := range e.varying {
		h := e.hosts[vi]
		if h.phasedRes+h.phasedInc == 0 {
			h.varyMark = false
			continue
		}
		keep = append(keep, vi)
		e.markHostDirty(h)
	}
	e.varying = keep
	if len(e.dirty) == 0 {
		return false
	}
	v := &e.pview
	order := v.Order
	byKey := func(a, b int32) int { return viewCmp(v, a, b) }
	// Find every dirty host under its old key, before the refresh
	// overwrites it.
	e.dirtyPos = e.dirtyPos[:0]
	for _, vi := range e.dirty {
		p, found := slices.BinarySearchFunc(order, vi, byKey)
		if !found {
			panic("cluster: view Order out of sync with its keys")
		}
		e.dirtyPos = append(e.dirtyPos, p)
	}
	for _, vi := range e.dirty {
		e.refreshHostView(e.hosts[vi], t)
		e.dirtyMark[vi] = false
	}
	// Compact: drop the dirty entries; the clean ones keep their keys
	// and so stay sorted.
	slices.Sort(e.dirtyPos)
	clean := e.dirtyPos[0]
	for k, p := range e.dirtyPos {
		end := len(order)
		if k+1 < len(e.dirtyPos) {
			end = e.dirtyPos[k+1]
		}
		clean += copy(order[clean:], order[p+1:end])
	}
	// Insert the dirty hosts by their new keys, largest first, each at
	// its binary-searched position among the clean entries; every clean
	// entry moves at most once.
	slices.SortFunc(e.dirty, byKey)
	out := len(order)
	for d := len(e.dirty) - 1; d >= 0; d-- {
		vi := e.dirty[d]
		p, _ := slices.BinarySearchFunc(order[:clean], vi, byKey)
		out -= clean - p
		copy(order[out:], order[p:clean])
		clean = p
		out--
		order[out] = vi
	}
	e.dirty = e.dirty[:0]
	e.compactArena()
	return true
}

// compactArena rewrites the VM arena without the stale ranges left by
// relocated hosts, once garbage dominates. Host indices, counts and
// aggregates are untouched — only VMStart moves.
func (e *engine) compactArena() {
	v := &e.pview
	if len(v.VMName) <= 2*e.viewLive+1024 {
		return
	}
	names := make([]string, 0, e.viewLive)
	mems := make([]units.Bytes, 0, e.viewLive)
	busys := make([]float64, 0, e.viewLive)
	dirts := make([]units.Fraction, 0, e.viewLive)
	for i := range v.VMStart {
		s, n := v.VMStart[i], v.VMCount[i]
		v.VMStart[i] = int32(len(names))
		names = append(names, v.VMName[s:s+n]...)
		mems = append(mems, v.VMMem[s:s+n]...)
		busys = append(busys, v.VMBusy[s:s+n]...)
		dirts = append(dirts, v.VMDirty[s:s+n]...)
	}
	v.VMName, v.VMMem, v.VMBusy, v.VMDirty = names, mems, busys, dirts
}

// viewPinnedEvac derives the pinned and evacuation name lists from the
// flight and failure state: airborne movers and their reservations plus
// post-abort cool-downs are pinned; non-migrating residents of crashed
// hosts are evacuees. The lists are sorted and equal what a per-host
// walk would collect (abort cool-downs only ever name VMs on live hosts
// — crashHost clears its residents' repins). They are the engine's
// scratch, valid until the next round.
func (e *engine) viewPinnedEvac() (pinned, evacuate []string) {
	e.pinned = e.pinned[:0]
	e.evac = e.evac[:0]
	for _, f := range e.fail.airborne {
		e.pinned = append(e.pinned, f.vm.Name, f.resName)
	}
	for name := range e.fail.repin {
		e.pinned = append(e.pinned, name)
	}
	for _, h := range e.downHosts {
		for _, g := range h.vms {
			if !g.migrating {
				e.evac = append(e.evac, g.Name)
			}
		}
	}
	sort.Strings(e.pinned)
	sort.Strings(e.evac)
	return e.pinned, e.evac
}
