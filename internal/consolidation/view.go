package consolidation

import (
	"sort"

	"repro/internal/units"
)

// View is the struct-of-arrays form of a fleet snapshot: parallel
// per-host arrays plus one flat VM-slot arena, indexed by VMStart and
// VMCount ranges. A policy snapshot at fleet scale is then O(1) slice
// headers instead of O(VMs) struct copies, and a caller that maintains
// a View incrementally (the cluster engine) only rewrites the slots of
// hosts an event actually touched.
//
// Invariants, on which the policies' bit-identity to the historical
// []HostState path rests:
//
//   - Busy[i] and Mem[i] are always produced by summing host i's slots
//     in slot order — never by incremental subtraction — so they equal
//     what HostState.BusyThreads/UsedMem would return for the same VM
//     list (floating-point addition is order-sensitive).
//   - Order holds every host index, ascending by (Busy, HostName).
//     Host names are unique, so the order is a unique total order and
//     any maintenance strategy (full sort, incremental merge) yields
//     the same permutation.
//   - A host's slots list its residents first (in the owner's
//     iteration order) and any reservation entries after them, exactly
//     as the AoS snapshot ordered HostState.VMs.
type View struct {
	// Per-host parallel arrays.
	HostName  []string
	Threads   []int
	MemCap    []units.Bytes
	IdlePower []units.Watts
	Down      []bool
	Busy      []float64
	Mem       []units.Bytes
	VMStart   []int32
	VMCount   []int32
	// Order is the host permutation ascending by (Busy, HostName).
	Order []int32
	// VM slot arena.
	VMName  []string
	VMMem   []units.Bytes
	VMBusy  []float64
	VMDirty []units.Fraction
	// NameOrdered records that host index order equals host name order
	// (the cluster engine sorts hosts by name). It licenses the
	// order-indexed target scan, whose tie-breaking by name must agree
	// with the historical tie-breaking by index.
	NameOrdered bool

	// ws is the planners' reusable working memory, allocated by the
	// first planning call (see vwork).
	ws *vwork
}

// ViewPolicy is a Policy that can plan directly against a View. PlanView
// is the planning core: the built-in policies' one-shot Plan doors
// validate, flatten the hosts through NewView and call it, so both
// paths plan bit-identical moves.
//
// PlanView returns the round's moves and their MigrationEnergy only; it
// leaves the fleet summary (FreedHosts, IdleSavings) empty, because
// finding every empty host costs O(hosts) and a periodic re-planner
// acts on the moves alone. The one-shot Plan doors add the summary the
// moves imply.
//
// A View carries the planners' working memory, reused across calls, so
// one goroutine plans a given View at a time. The cluster engine plans
// its one View from its event loop, and the one-shot Plan doors build a
// fresh View per call. A returned Plan shares no memory with the View.
type ViewPolicy interface {
	Policy
	PlanView(v *View, cfg Config) (*Plan, error)
}

func (v *View) hostCount() int { return len(v.HostName) }

// vm materializes arena slot s as a VMState.
func (v *View) vm(s int32) VMState {
	return VMState{Name: v.VMName[s], MemBytes: v.VMMem[s], BusyVCPUs: v.VMBusy[s], DirtyRatio: v.VMDirty[s]}
}

// AppendHost flattens one host into the view (build helper).
func (v *View) AppendHost(h HostState) {
	v.HostName = append(v.HostName, h.Name)
	v.Threads = append(v.Threads, h.Threads)
	v.MemCap = append(v.MemCap, h.MemBytes)
	v.IdlePower = append(v.IdlePower, h.IdlePower)
	v.Down = append(v.Down, h.Down)
	v.VMStart = append(v.VMStart, int32(len(v.VMName)))
	v.VMCount = append(v.VMCount, int32(len(h.VMs)))
	busy := 0.0
	var mem units.Bytes
	for _, g := range h.VMs {
		v.VMName = append(v.VMName, g.Name)
		v.VMMem = append(v.VMMem, g.MemBytes)
		v.VMBusy = append(v.VMBusy, g.BusyVCPUs)
		v.VMDirty = append(v.VMDirty, g.DirtyRatio)
		busy += g.BusyVCPUs
		mem += g.MemBytes
	}
	v.Busy = append(v.Busy, busy)
	v.Mem = append(v.Mem, mem)
}

// SortOrder (re)builds Order ascending by (Busy, HostName).
func (v *View) SortOrder() {
	v.Order = v.Order[:0]
	for i := range v.HostName {
		v.Order = append(v.Order, int32(i))
	}
	sort.Slice(v.Order, func(a, b int) bool {
		i, j := v.Order[a], v.Order[b]
		if v.Busy[i] != v.Busy[j] {
			return v.Busy[i] < v.Busy[j]
		}
		return v.HostName[i] < v.HostName[j]
	})
}

// NewView flattens an AoS host list into a fresh View. The input is
// not retained; callers with invalid hosts must validate first (the
// one-shot Plan doors do).
func NewView(hosts []HostState) *View {
	v := &View{}
	nameOrdered := true
	for i, h := range hosts {
		v.AppendHost(h)
		if i > 0 && hosts[i-1].Name >= h.Name {
			nameOrdered = false
		}
	}
	v.NameOrdered = nameOrdered
	v.SortOrder()
	return v
}

// vwork is the planners' working memory over a read-only View: for
// every host a plan mutates, an overlay of its aggregates and its
// materialized VM list; every other host reads straight through to the
// View. It lives on the View and is reused by every planning call,
// reset in O(hosts the previous call touched) — so a planning round
// allocates O(moves), not O(hosts).
type vwork struct {
	v *View
	// Overlays, valid only where touchedMark is set.
	busy []float64
	mem  []units.Bytes
	cnt  []int32
	vms  [][]VMState
	// touched lists hosts whose aggregates may differ from the View
	// (evacuation targets and sources, drain commits); the order-indexed
	// target scan must price them individually instead of trusting the
	// snapshot order.
	touched     []int32
	touchedMark []bool
	received    []bool // set only on touched hosts
	// Per-call scratch.
	order []int32 // drain order re-sorted after evacuations
	live  []int32 // drain targets in busy order (see EnergyAware.PlanView)
	drain viewDrainScratch
}

// work returns the View's planning workspace, reset for a new call.
func (v *View) work() *vwork {
	w := v.ws
	if w == nil {
		w = &vwork{}
		v.ws = w
	}
	for _, i := range w.touched {
		w.touchedMark[i] = false
		w.received[i] = false
	}
	w.touched = w.touched[:0]
	w.v = v
	if n := v.hostCount(); len(w.touchedMark) < n {
		w.busy = make([]float64, n)
		w.mem = make([]units.Bytes, n)
		w.cnt = make([]int32, n)
		w.vms = make([][]VMState, n)
		w.touchedMark = make([]bool, n)
		w.received = make([]bool, n)
		// Fresh epochs are 0; the drain epoch is at least 1 once a drain
		// starts, so no stale tentative delta can match.
		w.drain.tentEpoch = make([]int, n)
		w.drain.tentBusy = make([]float64, n)
		w.drain.tentMem = make([]units.Bytes, n)
	}
	return w
}

// busyOf, memOf and cntOf return host i's current aggregates.
func (w *vwork) busyOf(i int32) float64 {
	if w.touchedMark[i] {
		return w.busy[i]
	}
	return w.v.Busy[i]
}

func (w *vwork) memOf(i int32) units.Bytes {
	if w.touchedMark[i] {
		return w.mem[i]
	}
	return w.v.Mem[i]
}

func (w *vwork) cntOf(i int32) int32 {
	if w.touchedMark[i] {
		return w.cnt[i]
	}
	return w.v.VMCount[i]
}

// vmsOf returns host i's current VM list. The first call of a planning
// call marks the host touched: it materializes the list from the arena
// and seeds the overlay from the View. Mutation paths only.
func (w *vwork) vmsOf(i int32) []VMState {
	if !w.touchedMark[i] {
		w.touchedMark[i] = true
		w.touched = append(w.touched, i)
		w.vms[i] = w.v.appendVMs(w.vms[i][:0], i)
		w.busy[i], w.mem[i], w.cnt[i] = w.v.Busy[i], w.v.Mem[i], w.v.VMCount[i]
	}
	return w.vms[i]
}

// appendVMs copies host i's arena range into dst.
func (v *View) appendVMs(dst []VMState, i int32) []VMState {
	s, n := v.VMStart[i], v.VMCount[i]
	for k := s; k < s+n; k++ {
		dst = append(dst, v.vm(k))
	}
	return dst
}

// appendVMs copies host i's current VM list into dst without touching
// the host.
func (w *vwork) appendVMs(dst []VMState, i int32) []VMState {
	if w.touchedMark[i] {
		return append(dst, w.vms[i]...)
	}
	return w.v.appendVMs(dst, i)
}

// hostHasPinned reports whether any of host i's VMs is pinned, without
// touching the host.
func (w *vwork) hostHasPinned(i int32, pinned map[string]bool) bool {
	if len(pinned) == 0 {
		return false
	}
	if w.touchedMark[i] {
		for _, g := range w.vms[i] {
			if pinned[g.Name] {
				return true
			}
		}
		return false
	}
	s, n := w.v.VMStart[i], w.v.VMCount[i]
	for k := s; k < s+n; k++ {
		if pinned[w.v.VMName[k]] {
			return true
		}
	}
	return false
}

// removeVM detaches a named VM from host i, preserving order.
func (w *vwork) removeVM(i int32, name string) (VMState, bool) {
	l := w.vmsOf(i)
	g, ok := removeVMSlice(&l, name)
	if !ok {
		return VMState{}, false
	}
	w.vms[i] = l
	w.cnt[i] = int32(len(l))
	w.recompute(i)
	return g, true
}

// addVM appends a VM to host i.
func (w *vwork) addVM(i int32, g VMState) {
	w.vms[i] = append(w.vmsOf(i), g)
	w.cnt[i] = int32(len(w.vms[i]))
	w.recompute(i)
}

// recompute refreshes touched host i's aggregates by re-summing its
// current VM list in order (see the View invariant).
func (w *vwork) recompute(i int32) {
	busy := 0.0
	var mem units.Bytes
	for _, g := range w.vms[i] {
		busy += g.BusyVCPUs
		mem += g.MemBytes
	}
	w.busy[i], w.mem[i] = busy, mem
}

// summarize fills a one-shot plan's fleet summary: every live host the
// plan's moves leave empty is freed, in name order, and its idle draw is
// reclaimed. A crashed host emptied by evacuation is not freed: it
// already draws nothing. PlanView plans carry no summary — a periodic
// re-planner reads only the moves — so this O(hosts) pass runs only
// behind the Policy.Plan doors.
func (v *View) summarize(plan *Plan) {
	delta := make(map[string]int32, 2*len(plan.Moves))
	for _, m := range plan.Moves {
		delta[m.From]--
		delta[m.To]++
	}
	for i, name := range v.HostName {
		if v.VMCount[i]+delta[name] == 0 && !v.Down[i] {
			plan.FreedHosts = append(plan.FreedHosts, name)
			plan.IdleSavings += v.IdlePower[i]
		}
	}
	sort.Strings(plan.FreedHosts)
}
