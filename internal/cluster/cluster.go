// Package cluster generalises the two-host testbed into an N-host
// discrete-event data-centre simulator. A cluster is a population of
// hosts built from hw catalog machine models, each running VMs whose
// workload intensity may follow a phased timeline (steady, burst,
// diurnal, ramp). The engine advances a continuous timeline through
// three event kinds:
//
//   - policy ticks: a consolidation.Policy re-plans against the current
//     state, with in-flight migrations pinned and their destination
//     capacity reserved;
//   - migration start/finish: every started migration is lowered to a
//     full two-host simulation on the sim kernel (answered through the
//     run cache), which supplies its measured energy, byte volume and
//     phase spans;
//   - workload phase transitions: VM intensity changes that the next
//     snapshot — and therefore the next planning round and the next
//     lowered scenario — observe.
//
// Concurrent migrations whose endpoints hang off the same switch share
// the migration path: the transfer phase of each flight progresses at
// 1/n of its intrinsic rate while n transfers co-occupy the link
// (equal-share processor sharing), so a drain that fires ten moves at
// once measurably contends instead of executing as ten free lunches.
// The per-flight stretch is reported, and the transfer-phase energy is
// scaled by it (transfer power is sustained for stretch times longer).
//
// Topology enters the run-cache key naturally: a lowered scenario's
// Pair field is the source/target machine-model pair ("m01/h1"), which
// is part of sim.Scenario and therefore of the cache identity — two
// host pairs of identical models with identical loads share one
// simulation, two different model pairs never do.
//
// Everything is deterministic: hosts and VMs are iterated in sorted
// order, every migration's seed derives from its global dispatch index,
// and batches fan out through internal/parallel's ordered collection —
// the report is bit-identical for every worker count and cache setting.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/consolidation"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// VM is one guest of the cluster: its footprint plus an optional
// intensity timeline.
type VM struct {
	// Name uniquely identifies the VM across the whole cluster.
	Name string
	// MemBytes is the memory image a migration must move.
	MemBytes units.Bytes
	// BusyVCPUs is the baseline CPU demand in busy-vCPU units.
	BusyVCPUs float64
	// DirtyRatio is the baseline steady-state memory dirtying ratio.
	DirtyRatio units.Fraction
	// Phases optionally modulates the baseline over cluster time: the
	// VM's effective demand and dirtying scale with the phase factor at
	// each instant. After the timeline ends the final factor holds.
	Phases []workload.Phase
}

// Validate rejects malformed VM descriptors.
func (v VM) Validate() error {
	switch {
	case v.Name == "":
		return errors.New("cluster: VM has no name")
	case v.MemBytes <= 0:
		return fmt.Errorf("cluster: VM %s has no memory", v.Name)
	case v.BusyVCPUs < 0:
		return fmt.Errorf("cluster: VM %s has negative CPU demand", v.Name)
	case v.DirtyRatio < 0 || v.DirtyRatio > 1:
		return fmt.Errorf("cluster: VM %s dirty ratio %v outside [0,1]", v.Name, v.DirtyRatio)
	}
	for i, p := range v.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("cluster: VM %s phase %d: %w", v.Name, i, err)
		}
	}
	return nil
}

// factor evaluates the VM's intensity at cluster time t: the phase
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

// Host is one physical machine of the cluster.
type Host struct {
	// Name identifies the host.
	Name string
	// Machine names the hw catalog model this host is an instance of; it
	// supplies capacity, idle power and the switch the host hangs off.
	// Required unless Config.Pair overrides lowering and the explicit
	// capacity fields below are set.
	Machine string
	// Threads, MemBytes and IdlePower override (or, without a Machine,
	// supply) the host capacity and the idle draw reclaimed by emptying
	// the host.
	Threads   int
	MemBytes  units.Bytes
	IdlePower units.Watts
	// Switch overrides the link domain; hosts on one switch share the
	// migration path and contend. Defaults to the machine's switch.
	Switch string
	// VMs are the initially resident guests.
	VMs []VM
}

// resolved is a host with its machine-derived fields filled in.
type resolved struct {
	Host
	sw string // effective link domain
}

// machineMemo resolves machine models for one check. Fleets list
// thousands of instances of a model back to back, so it remembers the
// last model: a run of same-model hosts costs one catalog lookup and
// one IdlePower evaluation, not one per host. The catalog is passed in
// because hw.Catalog builds a fresh map per call.
type machineMemo struct {
	cat    map[string]hw.MachineSpec
	cached bool
	name   string
	// The last model's fields a host resolves from; ok is false for a
	// model the catalog lacks.
	ok      bool
	threads int
	ram     units.Bytes
	idle    units.Watts
	sw      string
}

// lookup points the memo at the named machine model and reports
// whether the catalog has it.
func (m *machineMemo) lookup(name string) bool {
	if !m.cached || name != m.name {
		spec, ok := m.cat[name]
		*m = machineMemo{cat: m.cat, cached: true, name: name, ok: ok,
			threads: spec.Threads, ram: spec.RAM, sw: spec.Switch}
		if ok {
			m.idle = spec.IdlePower()
		}
	}
	return m.ok
}

// resolve fills out's capacity fields and link domain from host h and
// its machine model, and checks them. It copies nothing else of h: the
// caller keeps the Host itself only when it builds an engine. Its VMs
// are checked by Config.check, the one pass that resolves every host.
func (h *Host) resolve(m *machineMemo, out *resolved) error {
	if h.Name == "" {
		return errors.New("cluster: host has no name")
	}
	out.Threads, out.MemBytes, out.IdlePower, out.Switch = h.Threads, h.MemBytes, h.IdlePower, h.Switch
	if h.Machine != "" {
		if !m.lookup(h.Machine) {
			return fmt.Errorf("cluster: host %s: unknown machine model %q", h.Name, h.Machine)
		}
		if out.Threads == 0 {
			out.Threads = m.threads
		}
		if out.MemBytes == 0 {
			out.MemBytes = m.ram
		}
		if out.IdlePower == 0 {
			out.IdlePower = m.idle
		}
		if out.Switch == "" {
			out.Switch = m.sw
		}
	}
	out.sw = out.Switch
	if out.sw == "" {
		out.sw = "switch0"
	}
	switch {
	case out.Threads <= 0:
		return fmt.Errorf("cluster: host %s has no CPU capacity (set Machine or Threads)", h.Name)
	case out.MemBytes <= 0:
		return fmt.Errorf("cluster: host %s has no memory (set Machine or MemBytes)", h.Name)
	case out.IdlePower <= 0:
		return fmt.Errorf("cluster: host %s has no idle power (set Machine or IdlePower)", h.Name)
	}
	return nil
}

// TimedMove is one explicit migration of a cluster timeline.
type TimedMove struct {
	VM, From, To string
	// At is the dispatch instant. Moves sharing an instant start
	// concurrently and contend on shared links.
	At time.Duration
}

// Config describes one cluster timeline.
type Config struct {
	// Hosts is the cluster population.
	Hosts []Host
	// Kind is the migration mechanism for every move (Live or NonLive).
	Kind migration.Kind
	// Pair optionally lowers every move onto one fixed testbed pair
	// instead of the per-host machine models — the two-host
	// approximation data-centre scenarios compile to. When empty, each
	// move's pair is "srcMachine/dstMachine".
	Pair string
	// Policy re-plans the cluster at every tick; nil disables planning
	// (the timeline then runs the explicit Moves).
	Policy consolidation.Policy
	// PolicyConfig bounds each planning round. The engine adds the
	// in-flight pins itself.
	PolicyConfig consolidation.Config
	// Tick is the re-planning period (required with a Policy).
	Tick time.Duration
	// Horizon bounds the observed timeline: ticks fire at 0, Tick,
	// 2·Tick, … strictly below it, and phase transitions are recorded up
	// to it. Migrations started before the horizon always run to
	// completion, even past it.
	Horizon time.Duration
	// Moves is the explicit migration timeline (mutually exclusive with
	// Policy).
	Moves []TimedMove
	// Failures injects timed failure events — host crashes, flight
	// aborts, switch outage windows — into the timeline (see
	// FailureEvent). Events apply after same-instant flight completions
	// and before same-instant dispatches, and are not bounded by
	// Horizon. Incompatible with Serial.
	Failures []FailureEvent
	// EvacuationDeadline scores host crashes: every orphaned VM must
	// land on a live host within this span of its crash for the
	// report's EvacuationDeadlineMet to hold. Zero means "eventually".
	EvacuationDeadline time.Duration
	// Serial chains the explicit moves back to back — each move starts
	// when the previous one lands, with the state evolved in between —
	// reproducing the two-host executor's one-at-a-time semantics. It
	// requires every move's At to be zero and no VM phases.
	Serial bool
	// Seed derives every migration's simulation seed (dispatch index i
	// uses Seed + i·607, the two-host executor's stride).
	Seed int64
	// Workers bounds how many migration simulations run concurrently
	// (0 = NumCPU, 1 = sequential). Results are bit-identical for every
	// value.
	Workers int
	// Cache optionally memoizes migration simulations (see sim.NewCache).
	Cache *sim.Cache
	// Ctx optionally bounds the timeline's execution: the event loop
	// checks it between events and the kernel fan-out at every dispatch,
	// so a cancelled or deadline-expired context abandons the run with
	// the context's error instead of completing it. nil means
	// context.Background(). Cancellation never changes results — a
	// timeline that completes under any context is bit-identical.
	Ctx context.Context

	// referenceScan selects the retained linear-scan scheduler (O(F²)
	// per event) instead of the heap scheduler. Test-only: the
	// equivalence property test runs every fleet through both and
	// demands bit-identical reports.
	referenceScan bool

	// fullRebuild disables the incremental dirty-set maintenance of the
	// policy view: every planning round rebuilds the whole view from
	// the runtime state. Test-only: the equivalence property test runs
	// fleets through the dirty-set path, this fallback and the linear
	// reference, and demands bit-identical reports.
	fullRebuild bool

	// simOverride replaces the cache/kernel execution of lowered
	// migration scenarios. Test-only: the dispatch-transaction tests
	// inject kernels that fail mid-batch.
	simOverride func(sim.Scenario) (*sim.RunResult, error)
}

// Validate rejects unusable configurations. Run performs the same
// checks; callers that assemble configs from external data (scenario
// files) call it directly for early, pathed errors.
func (c Config) Validate() error {
	_, err := c.check(false)
	return err
}

// checked is a configuration validated and resolved in one pass, in
// config order: each host's link domain, the name indexes the checks
// need and — for the engine, which is built from it — every host
// resolved straight into its runtime slab.
type checked struct {
	hosts []hostRT // only when asked for
	sws   []string
	// hostAt maps a host name to its config index; vmAt maps a VM name
	// to the config index of its host.
	hostAt map[string]int32
	vmAt   map[string]int32
}

// sw returns a known host's link domain.
func (k *checked) sw(host string) string { return k.sws[k.hostAt[host]] }

func (k *checked) hasHost(name string) bool { _, ok := k.hostAt[name]; return ok }

func (k *checked) hasVM(name string) bool { _, ok := k.vmAt[name]; return ok }

// check validates the configuration and resolves every host in one
// pass. Validate and Run share it, so both report the same first error;
// only Run keeps the resolved hosts, which Validate would drop —
// Validate keeps each host's link domain alone.
func (c Config) check(keepHosts bool) (*checked, error) {
	if len(c.Hosts) == 0 {
		return nil, errors.New("cluster: no hosts")
	}
	if c.Kind != migration.Live && c.Kind != migration.NonLive {
		return nil, fmt.Errorf("cluster: unsupported migration kind %v (want live or non-live)", c.Kind)
	}
	if c.Pair != "" {
		src, dst, err := hw.Pair(c.Pair)
		if err != nil {
			return nil, err
		}
		// Every move lowers onto this one pair, so it must be physically
		// linkable or no move can ever simulate.
		if src.Switch != dst.Switch {
			return nil, fmt.Errorf("cluster: pair %q spans switches %q and %q and cannot migrate", c.Pair, src.Switch, dst.Switch)
		}
	}
	memo := &machineMemo{cat: hw.Catalog()}
	nvms := 0
	for _, h := range c.Hosts {
		nvms += len(h.VMs)
	}
	k := &checked{
		sws:    make([]string, len(c.Hosts)),
		hostAt: make(map[string]int32, len(c.Hosts)),
		vmAt:   make(map[string]int32, nvms),
	}
	var scratch resolved
	if keepHosts {
		k.hosts = make([]hostRT, len(c.Hosts))
	}
	for i := range c.Hosts {
		h := &c.Hosts[i]
		hi := int32(i)
		r := &scratch
		if keepHosts {
			r = &k.hosts[i].resolved
			r.Host = *h
		}
		if err := h.resolve(memo, r); err != nil {
			return nil, err
		}
		// A VM's first sighting claims its name for its host; a repeat on
		// the same host is a local duplicate. A name an earlier host
		// already claimed is reported below, after the host's own checks,
		// unless this host repeats it too.
		for j, v := range h.VMs {
			if err := v.Validate(); err != nil {
				return nil, err
			}
			at, seen := k.vmAt[v.Name]
			if !seen {
				k.vmAt[v.Name] = hi
			} else if at == hi || namesVM(h.VMs[:j], v.Name) {
				return nil, fmt.Errorf("cluster: duplicate VM %q on host %s", v.Name, h.Name)
			}
		}
		if c.Pair == "" && h.Machine == "" {
			return nil, fmt.Errorf("cluster: host %s needs a machine model (or set Config.Pair to lower every move onto one testbed pair)", h.Name)
		}
		if k.hostAt[h.Name] = hi; len(k.hostAt) != i+1 {
			return nil, fmt.Errorf("cluster: duplicate host %q", h.Name)
		}
		k.sws[i] = r.sw
		for _, v := range h.VMs {
			if k.vmAt[v.Name] != hi {
				return nil, fmt.Errorf("cluster: VM %q appears on two hosts", v.Name)
			}
			if c.Serial && len(v.Phases) > 0 {
				return nil, fmt.Errorf("cluster: VM %q has phases; serial timelines are time-invariant", v.Name)
			}
			// Policy snapshots name in-flight destination reservations
			// "<vm>+incoming" in the same namespace as real VMs; a real VM
			// wearing that suffix would silently alias a reservation (and
			// its pin).
			if c.Policy != nil && strings.HasSuffix(v.Name, "+incoming") {
				return nil, fmt.Errorf("cluster: VM name %q ends in \"+incoming\", which is reserved for in-flight reservations in policy timelines", v.Name)
			}
		}
	}
	// A Switch override changes the contention domain, not the physics:
	// without a Pair override, a move still simulates on the machine
	// models, whose catalog switches netsim enforces. Check them
	// separately so an override cannot smuggle an unlinkable pair past
	// the reachability guards below.
	physical := func(i int32) string {
		if c.Pair == "" {
			memo.lookup(c.Hosts[i].Machine)
			return memo.sw
		}
		return k.sws[i]
	}
	declared := func(i int32) string { return k.sws[i] }
	if c.Policy != nil {
		switch {
		case len(c.Moves) > 0:
			return nil, errors.New("cluster: a policy and explicit moves are mutually exclusive")
		case c.Serial:
			return nil, errors.New("cluster: serial execution needs an explicit move list, not a policy")
		case c.Tick <= 0:
			return nil, errors.New("cluster: a policy needs a positive tick period")
		case c.Horizon <= 0:
			return nil, errors.New("cluster: a policy needs a positive horizon")
		case len(c.Hosts) < 2:
			return nil, errors.New("cluster: planning needs at least two hosts")
		}
		// The built-in policies are topology-blind: on a mixed-switch
		// population they would eventually plan a cross-switch move and
		// abort the whole timeline mid-run. Refuse up front — for the
		// declared domains and the physical ones alike; cross-switch
		// routing is a planned extension (see ROADMAP).
		for _, domain := range []func(int32) string{declared, physical} {
			first := domain(0)
			for i := range c.Hosts[1:] {
				if sw := domain(int32(i + 1)); sw != first {
					return nil, fmt.Errorf("cluster: policy-driven timelines need all hosts on one switch; %s is on %q, %s on %q",
						c.Hosts[0].Name, first, c.Hosts[i+1].Name, sw)
				}
			}
		}
	}
	dispatched := map[string]map[time.Duration]bool{} // VM -> dispatch instants
	for i, m := range c.Moves {
		switch {
		case m.VM == "":
			return nil, fmt.Errorf("cluster: move %d has no VM", i)
		case !c.Serial && dispatched[m.VM][m.At]:
			// Serial moves all carry At zero and chain one after another,
			// so moving a VM again is a later move, not a duplicate.
			return nil, fmt.Errorf("cluster: move %d dispatches VM %q twice at %v", i, m.VM, m.At)
		case !k.hasVM(m.VM):
			return nil, fmt.Errorf("cluster: move %d references unknown VM %q", i, m.VM)
		case !k.hasHost(m.From):
			return nil, fmt.Errorf("cluster: move %d references unknown host %q", i, m.From)
		case !k.hasHost(m.To):
			return nil, fmt.Errorf("cluster: move %d references unknown host %q", i, m.To)
		case m.From == m.To:
			return nil, fmt.Errorf("cluster: move %d does not change hosts (%q)", i, m.From)
		case m.At < 0:
			return nil, fmt.Errorf("cluster: move %d starts before the timeline (%v)", i, m.At)
		case c.Serial && m.At != 0:
			return nil, fmt.Errorf("cluster: move %d has a start time; serial timelines derive their own", i)
		case k.sw(m.From) != k.sw(m.To):
			return nil, fmt.Errorf("cluster: move %d has no migration path from %s (%s) to %s (%s): different switches",
				i, m.From, k.sw(m.From), m.To, k.sw(m.To))
		case physical(k.hostAt[m.From]) != physical(k.hostAt[m.To]):
			return nil, fmt.Errorf("cluster: move %d has no physical migration path from %s (machine switch %q) to %s (machine switch %q)",
				i, m.From, physical(k.hostAt[m.From]), m.To, physical(k.hostAt[m.To]))
		}
		if dispatched[m.VM] == nil {
			dispatched[m.VM] = map[time.Duration]bool{}
		}
		dispatched[m.VM][m.At] = true
	}
	if err := c.validateFailures(k); err != nil {
		return nil, err
	}
	return k, nil
}

// namesVM reports whether a VM list names the given VM.
func namesVM(vms []VM, name string) bool {
	for _, v := range vms {
		if v.Name == name {
			return true
		}
	}
	return false
}
