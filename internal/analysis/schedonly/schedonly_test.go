package schedonly_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/schedonly"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", schedonly.Analyzer, "sim")
}

// TestExemptPackagesMayUseConcurrency pins the escape for host-side
// code: a package listed in ExemptPkgs (internal/sweep's worker pool)
// gets no diagnostics at all.
func TestExemptPackagesMayUseConcurrency(t *testing.T) {
	schedonly.ExemptPkgs["host"] = true
	defer delete(schedonly.ExemptPkgs, "host")
	analysistest.Run(t, "testdata", schedonly.Analyzer, "host")
}

// TestNoSimulationPackageIsExempt pins that the exemption stays with
// the sweep engine's host-side worker pool: no simulation package rode
// along into the set, and the scheduler, whose tasks are coroutines,
// stays checked like the code it runs.
func TestNoSimulationPackageIsExempt(t *testing.T) {
	for _, p := range []string{
		"repro/internal/mpi", "repro/internal/ib", "repro/internal/node",
		"repro/internal/sim", "repro/internal/sched",
	} {
		if schedonly.ExemptPkgs[p] {
			t.Errorf("simulation package %s must not be exempt", p)
		}
	}
}
