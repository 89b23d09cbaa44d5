package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "a")
}

// TestTraceShapedRecorderIsCovered pins that a span recorder — the
// shape of internal/trace — gets no special treatment: wall-clock
// stamps and unseeded jitter in a tracing path are flagged like any
// other simulation code, keeping the byte-identical-trace contract
// enforceable at analysis time.
func TestTraceShapedRecorderIsCovered(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "trc")
}

func TestAllowlistedPackagesAreExempt(t *testing.T) {
	determinism.AllowedPkgs["b"] = true
	defer delete(determinism.AllowedPkgs, "b")
	analysistest.Run(t, "testdata", determinism.Analyzer, "b")
}

// TestNoSimulationPackageIsAllowed pins that the allowance stays with
// the two packages that own time and entropy: no simulation package
// rode along into the set.
func TestNoSimulationPackageIsAllowed(t *testing.T) {
	for _, p := range []string{
		"repro/internal/mpi", "repro/internal/ib", "repro/internal/node",
		"repro/internal/sim", "repro/internal/sweep",
	} {
		if determinism.AllowedPkgs[p] {
			t.Errorf("simulation package %s must not be allowed", p)
		}
	}
}

// TestSuggestedFixes applies every fix the analyzer emits on the fix
// fixture and checks the result against the committed .golden file.
func TestSuggestedFixes(t *testing.T) {
	analysistest.RunWithSuggestedFixes(t, "testdata", determinism.Analyzer, "fix")
}
