package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"repro/internal/migration"
	"repro/internal/vm"
	"repro/internal/workload"
)

// canaryDigests pins, per artefactVersion, the SHA-256 of each canary
// scenario's encoded artefact, in canaryScenarios order. A kernel change
// that alters what a run produces fails TestKernelCanary until
// artefactVersion is bumped (so shared caches stop serving the old
// physics) and the new version's row is added here.
var canaryDigests = map[int][]string{
	2: {
		"a419e215c0fc5ee090f133b7bfeff64679c553a18dbb6390a264f656bbfabc82",
		"49d24599801cebd87643c00fd1da9e1420088890955e171498a0d77b1ccd0d86",
		"e44dfc2a6303b40130683a789dc5653aa38337c04c36cfdd257f90cb0fbd0b80",
	},
}

// canaryScenarios are three tiny fixed kernel runs covering both page
// dirtiers and the pre-copy and post-copy engines.
func canaryScenarios() []Scenario {
	short := func(sc Scenario) Scenario {
		sc.PreMigration, sc.PostMigration = time.Second, time.Second
		return sc
	}
	return []Scenario{
		short(Scenario{Name: "canary/uniform-live", Kind: migration.Live, MigratingType: vm.TypeMigratingMem,
			MigratingProfile: workload.PagedirtierProfile(0.5), SourceLoadVMs: 1, Seed: 11}),
		short(Scenario{Name: "canary/hotcold-live", Kind: migration.Live, MigratingType: vm.TypeMigratingMem,
			MigratingProfile: workload.HotColdMemProfile(0.5), TargetLoadVMs: 1, Seed: 12}),
		short(Scenario{Name: "canary/post-copy", Kind: migration.PostCopy, MigratingType: vm.TypeMigratingMem,
			MigratingProfile: workload.PagedirtierProfile(0.3), Seed: 13}),
	}
}

// TestKernelCanary runs the canary scenarios and compares their
// artefact digests with the committed row for the current
// artefactVersion.
func TestKernelCanary(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests are amd64 results. Elsewhere the compiler may fuse
		// x*y+z into one FMA and change low bits; cross-architecture
		// bit-identity is ROADMAP item 4.
		t.Skip("kernel digests are pinned on amd64 only (ROADMAP item 4: FMA fusion)")
	}
	want, ok := canaryDigests[artefactVersion]
	if !ok {
		t.Fatalf("no canary digests for artefactVersion %d: add the row this test prints", artefactVersion)
	}
	for i, sc := range canaryScenarios() {
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		t.Logf("%s: %d rounds, %d bytes sent", sc.Name, res.Rounds, res.BytesSent)
		keyBytes := encodeCacheKey(cacheKey(sc))
		sum := sha256.Sum256(encodeArtefact(keyBytes, sha256.Sum256(keyBytes), res))
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("%s: artefact digest %s, version %d pins %s — the kernel's output changed: bump artefactVersion and add a row",
				sc.Name, got, artefactVersion, want[i])
		}
	}
}
