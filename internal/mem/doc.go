// Package mem models guest memory as the dirty-page counts the paper
// observes, and the dirtying processes generated by workloads. The
// dirtying ratio DR(v,t) of the paper's Eq. 1 — dirty pages over total
// pages — is computed here.
//
// An Image holds no per-page state. Xen's log-dirty bitmap is only ever
// read through counts (DIRTYPAGES for Eq. 1 on every step, the pages a
// pre-copy round sends at its end), and the pages of one dirtier class
// (a uniform working set, or a hot/cold dirtier's hot and cold sets) are
// exchangeable: which pages are dirty carries no information beyond how
// many. So each dirtier keeps its class's dirty pages notionally packed
// at the front of the class, makes the same random draws per write a
// bitmap dirtier would, and counts a write as new iff its draw lands
// past the packed prefix. The counts follow the bitmap process's Markov
// chain exactly in distribution (mem_test.go checks them against a
// bitmap oracle over thousands of seeds), at the cost of the draws alone
// and with no page memory.
//
// Position in the data flow (see ARCHITECTURE.md): mem sits at the bottom
// of the simulation stack. Workload profiles (internal/workload)
// instantiate a Dirtier — uniform or hot/cold-skewed — against a VM's
// Image; the migration engine reads the dirty count round by round during
// pre-copy. The Dirtier step loop is the hottest code in memory-heavy
// simulations, which is why it draws from an inline splitmix64 generator
// instead of math/rand. Entry points: NewImage, NewUniformDirtier,
// NewHotColdDirtier.
package mem
