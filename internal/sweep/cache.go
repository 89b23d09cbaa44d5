package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/cas"
)

// Content-addressed incremental execution. Every (cell, seed) run is a
// pure function of its inputs — PRs 5–8 made that a gated invariant
// (byte-identical BENCH documents across worker counts, GOMAXPROCS and
// processes) — so a run's metrics can be served from a cas.Store
// whenever a prior execution stored them under the same key. The key
// covers everything the run reads:
//
//   - the BENCH schema version (a schema bump re-executes everything),
//   - the module code fingerprint (any production-source edit
//     invalidates the whole store — coarse, but never stale),
//   - the workload name, canonical machine name and the full strategy
//     tuple (allocator, dereg policy, ATT mode, policy engine),
//   - the seed-mixed fault spec, the replicate seed and the rank count.
//
// Wall-clock metrics (IsWallMetric) are excluded from stored payloads —
// the same family Bench.StripWall excises — so a cache hit returns
// exactly the deterministic view, and stripped documents from cached
// and fresh executions compare byte-identical.

// kindMetrics names the payload family of a run's metrics in the key.
const kindMetrics = "metrics"

// strategyID renders the full strategy tuple, not just its name, so
// redefining what a named strategy means invalidates its entries.
func strategyID(s Strategy) string {
	return fmt.Sprintf("%s|%s|%t|%t|%s", s.Name, s.Allocator, s.LazyDereg, s.HugeATT, s.Policy)
}

// runKey derives the content address of one (cell, seed) replicate.
func runKey(fingerprint string, j *job) cas.Key {
	return cas.HashFields(
		cas.F("kind", kindMetrics),
		cas.F("schema", strconv.Itoa(SchemaVersion)),
		cas.F("fingerprint", fingerprint),
		cas.F("workload", j.wl.Name),
		cas.F("machine", j.machine.Name),
		cas.F("strategy", strategyID(j.strat)),
		cas.F("faults", j.spec.String()),
		cas.F("seed", strconv.FormatUint(j.seed, 10)),
		cas.F("ranks", strconv.Itoa(j.ranks)),
	)
}

// encodeMetrics renders a run's metrics as the canonical cache payload:
// wall metrics dropped, keys sorted (encoding/json maps), one compact
// JSON object.
func encodeMetrics(m Metrics) ([]byte, error) {
	det := make(Metrics, len(m))
	for name, v := range m {
		if !IsWallMetric(name) {
			det[name] = v
		}
	}
	return json.Marshal(det)
}

// decodeMetrics strictly decodes a cached payload. A payload that does
// not decode to a non-empty metrics map reports ok = false and the
// caller re-executes — defense in depth behind the store's checksum.
func decodeMetrics(payload []byte) (Metrics, bool) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var m Metrics
	if err := dec.Decode(&m); err != nil || len(m) == 0 {
		return nil, false
	}
	return m, true
}

// fingerprintOr resolves the effective fingerprint for one Execute call.
func fingerprintOr(fp string) string {
	if fp != "" {
		return fp
	}
	return cas.ModuleFingerprint()
}
