package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file expands cluster fleet templates (ClusterSpec.Fleet) into
// concrete host lists. Expansion is pure data → data and fully
// deterministic: the same spec (name, seed, groups) expands to the same
// hosts — and therefore the same lowered migration scenarios and
// run-cache keys — in every session.

// hostCount is the cluster's total population: explicit hosts plus
// every fleet replica.
func (c *ClusterSpec) hostCount() int {
	n := len(c.Hosts)
	for _, g := range c.Fleet {
		if g.Count > 0 {
			n += g.Count
		}
	}
	return n
}

// appendReplicaSuffix appends replica i's deterministic name suffix:
// a dash and the index zero-padded to at least four digits ("-0042").
func appendReplicaSuffix(b []byte, i int) []byte {
	b = append(b, '-')
	for d := 1000; d > 1 && i < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// fleetJitter derives replica i's phase lead-in, in whole seconds of
// [0, maxS): a splitmix64 finalizer over the scenario seed, the group
// name and the replica index. Stable across sessions and machines by
// construction — it feeds compiled timelines and so cache identities.
func fleetJitter(seed int64, group string, i int, maxS int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(group))
	x := uint64(seed) + h.Sum64() + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % uint64(maxS))
}

// validateFleetGroups checks the group templates under
// cluster.fleet[g] paths. Per-replica properties (duplicate names
// against explicit hosts, VM field ranges) are checked by the expanded
// host validation afterwards.
func (s *Spec) validateFleetGroups() error {
	name := s.Name
	cat := hw.Catalog()
	seen := make(map[string]int, len(s.Cluster.Fleet))
	// Total-population bound, summed in int64 so absurd per-group counts
	// cannot wrap the check they are being checked against.
	total := int64(len(s.Cluster.Hosts))
	for gi, g := range s.Cluster.Fleet {
		path := fmt.Sprintf("cluster.fleet[%d]", gi)
		if !validName(g.Name) {
			return errf(name, path+".name", "must be non-empty lowercase [a-z0-9._-], got %q", g.Name)
		}
		if prev, dup := seen[g.Name]; dup {
			return errf(name, path+".name", "group %q already declared at cluster.fleet[%d]", g.Name, prev)
		}
		seen[g.Name] = gi
		if g.Count < 1 || g.Count > MaxFleetReplicas {
			return errf(name, path+".count", "must be 1..%d, got %d", MaxFleetReplicas, g.Count)
		}
		total += int64(g.Count)
		if total > MaxFleetHosts {
			return errf(name, path+".count", "cluster exceeds %d hosts in total (group %q brings it to %d)", MaxFleetHosts, g.Name, total)
		}
		if _, ok := cat[g.Machine]; !ok {
			models := make([]string, 0, len(cat))
			for m := range cat {
				models = append(models, m)
			}
			sort.Strings(models)
			return errf(name, path+".machine", "unknown machine model %q (catalog: %s)", g.Machine, strings.Join(models, ", "))
		}
		if g.PhaseJitterS < 0 {
			return errf(name, path+".phase_jitter_s", "must be non-negative, got %v", g.PhaseJitterS)
		}
		if g.PhaseJitterS > 0 {
			if g.PhaseJitterS < 1 || g.PhaseJitterS != math.Trunc(g.PhaseJitterS) {
				return errf(name, path+".phase_jitter_s", "lead-ins are whole seconds; must be 0 or a whole number of seconds >= 1, got %v", g.PhaseJitterS)
			}
			phased := false
			for vi, v := range g.VMs {
				if len(v.Phases) == 0 {
					continue
				}
				phased = true
				// The lead-in holds the timeline's entry intensity as a
				// steady phase; Level 0 means "factor 1" in the phase
				// grammar, so an entry factor of exactly 0 cannot be
				// expressed and is refused.
				if entry := v.Phases[0].phase().Factor(0); entry <= 0 {
					return errf(name, fmt.Sprintf("%s.vms[%d].phases[0]", path, vi),
						"entry intensity factor is %v; a jittered lead-in cannot hold it (factors must be positive)", entry)
				}
			}
			if !phased {
				return errf(name, path+".phase_jitter_s", "no template VM has phases; there is no timeline to offset")
			}
		}
	}
	return nil
}

// hostAt locates one expanded host for error paths: explicit host i
// (group < 0) or replica i of fleet group group. Path labels are
// formatted only when an error is returned.
type hostAt struct{ group, i int }

func (a hostAt) String() string {
	if a.group < 0 {
		return fmt.Sprintf("cluster.hosts[%d]", a.i)
	}
	return fmt.Sprintf("cluster.fleet[%d].replica[%d]", a.group, a.i)
}

// vm labels VM vi of the host.
func (a hostAt) vm(vi int) string { return fmt.Sprintf("%s.vms[%d]", a, vi) }

// expansion is the cluster's single expansion walk: it visits the
// concrete host population — explicit hosts followed by every fleet
// replica — validates each host and VM under its per-replica field
// path, and lowers it straight into the engine's host list. The name
// sets it builds serve the move and failure checks afterwards.
type expansion struct {
	spec    *Spec
	cat     map[string]hw.MachineSpec
	hosts   []cluster.Host
	hostSet map[string]bool
	vmSet   map[string]bool
	name    []byte // replica-name scratch
}

// expandCluster runs the expansion walk over the whole cluster.
func (s *Spec) expandCluster() (*expansion, error) {
	c := s.Cluster
	vms := 0
	for _, h := range c.Hosts {
		vms += len(h.VMs)
	}
	for _, g := range c.Fleet {
		vms += g.Count * len(g.VMs)
	}
	x := &expansion{
		spec:    s,
		cat:     hw.Catalog(),
		hosts:   make([]cluster.Host, 0, c.hostCount()),
		hostSet: make(map[string]bool, c.hostCount()),
		vmSet:   make(map[string]bool, vms),
	}
	for hi, h := range c.Hosts {
		at := hostAt{-1, hi}
		if err := x.addHost(at, h.Name, h.Machine, len(h.VMs)); err != nil {
			return nil, err
		}
		for vi := range h.VMs {
			v := &h.VMs[vi]
			if err := x.addVM(at, vi, v.Name, v, nil); err != nil {
				return nil, err
			}
		}
	}
	seed := s.EffectiveSeed()
	for gi, g := range c.Fleet {
		for i := 0; i < g.Count; i++ {
			at := hostAt{gi, i}
			if err := x.addHost(at, x.replicaName(g.Name, i), g.Machine, len(g.VMs)); err != nil {
				return nil, err
			}
			for vi := range g.VMs {
				v := &g.VMs[vi]
				var lead *PhaseSpec
				if g.PhaseJitterS >= 1 && len(v.Phases) > 0 {
					if d := fleetJitter(seed, g.Name, i, int64(g.PhaseJitterS)); d > 0 {
						// Hold the timeline's entry intensity: a steady span
						// at the first phase's position-0 factor.
						lead = &PhaseSpec{
							Name:      "lead-in",
							Kind:      string(workload.PhaseSteady),
							DurationS: float64(d),
							Level:     v.Phases[0].phase().Factor(0),
						}
					}
				}
				if err := x.addVM(at, vi, x.replicaName(v.Name, i), v, lead); err != nil {
					return nil, err
				}
			}
		}
	}
	return x, nil
}

// replicaName names replica i of a template host or VM.
func (x *expansion) replicaName(base string, i int) string {
	x.name = appendReplicaSuffix(append(x.name[:0], base...), i)
	return string(x.name)
}

// addHost checks one expanded host and appends it with room for its
// VMs.
func (x *expansion) addHost(at hostAt, name, machine string, vms int) error {
	sname := x.spec.Name
	if name == "" {
		return errf(sname, at.String()+".name", "required")
	}
	// One map operation both claims the name and detects a repeat.
	n := len(x.hostSet)
	if x.hostSet[name] = true; len(x.hostSet) == n {
		return errf(sname, at.String()+".name", "duplicate host %q", name)
	}
	if _, ok := x.cat[machine]; !ok {
		models := make([]string, 0, len(x.cat))
		for m := range x.cat {
			models = append(models, m)
		}
		sort.Strings(models)
		return errf(sname, at.String()+".machine", "unknown machine model %q (catalog: %s)", machine, strings.Join(models, ", "))
	}
	h := cluster.Host{Name: name, Machine: machine}
	if vms > 0 {
		h.VMs = make([]cluster.VM, 0, vms)
	}
	x.hosts = append(x.hosts, h)
	return nil
}

// addVM checks one expanded VM — named name, with an optional lead-in
// phase ahead of the template's own — and appends it, lowered, to the
// last host.
func (x *expansion) addVM(at hostAt, vi int, name string, v *ClusterVMSpec, lead *PhaseSpec) error {
	sname := x.spec.Name
	if name == "" {
		return errf(sname, at.vm(vi)+".name", "required")
	}
	n := len(x.vmSet)
	if x.vmSet[name] = true; len(x.vmSet) == n {
		return errf(sname, at.vm(vi)+".name", "VM %q already exists in the cluster", name)
	}
	switch {
	case v.MemGiB <= 0:
		return errf(sname, at.vm(vi)+".mem_gib", "must be positive, got %v", v.MemGiB)
	case v.BusyVCPUs < 0:
		return errf(sname, at.vm(vi)+".busy_vcpus", "must be non-negative, got %v", v.BusyVCPUs)
	case v.DirtyRatio < 0 || v.DirtyRatio > 1:
		return errf(sname, at.vm(vi)+".dirty_ratio", "%v outside [0, 1]", v.DirtyRatio)
	}
	cv := cluster.VM{
		Name:       name,
		MemBytes:   gib(v.MemGiB),
		BusyVCPUs:  v.BusyVCPUs,
		DirtyRatio: units.Fraction(v.DirtyRatio),
	}
	if lead != nil || len(v.Phases) > 0 {
		cv.Phases = make([]workload.Phase, 0, len(v.Phases)+1)
		if lead != nil {
			if err := x.addPhase(&cv, at, vi, *lead); err != nil {
				return err
			}
		}
		for _, p := range v.Phases {
			if err := x.addPhase(&cv, at, vi, p); err != nil {
				return err
			}
		}
	}
	h := &x.hosts[len(x.hosts)-1]
	h.VMs = append(h.VMs, cv)
	return nil
}

// addPhase checks the VM's next phase and appends it, lowered.
func (x *expansion) addPhase(cv *cluster.VM, at hostAt, vi int, p PhaseSpec) error {
	if err := p.validate(x.spec.Name, "", false); err != nil {
		e := err.(*Error)
		e.Path = fmt.Sprintf("%s.phases[%d]", at.vm(vi), len(cv.Phases)) + e.Path
		return e
	}
	cv.Phases = append(cv.Phases, p.phase())
	return nil
}
