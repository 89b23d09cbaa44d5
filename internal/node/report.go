package node

import (
	"encoding/json"
	"io"
	"os"

	"repro/internal/trace"
)

// Report is the -stats JSON schema cmd/repro emits: one record per
// workload it ran, carrying the per-node telemetry snapshots plus their
// cluster-wide total. The output is a JSON array of Reports
// ([]node.Report); CI's golden check decodes it against exactly this
// type.
type Report struct {
	// Tool is the emitting command ("repro").
	Tool string `json:"tool"`
	// Workload names what ran ("sendrecv", ...).
	Workload string `json:"workload"`
	// Machine is the simulated system the workload ran on.
	Machine string `json:"machine"`
	// Faults echoes the active -faults spec ("" when disabled).
	Faults string `json:"faults,omitempty"`
	// Nodes holds one snapshot per simulated host (per MPI rank, or
	// per benchmark-rig side).
	Nodes []Stats `json:"nodes"`
	// Total is Sum(Nodes).
	Total Stats `json:"total"`
}

// NewReport assembles one Report, computing the total.
func NewReport(tool, workload, machine, faults string, nodes []Stats) Report {
	return Report{
		Tool:     tool,
		Workload: workload,
		Machine:  machine,
		Faults:   faults,
		Nodes:    nodes,
		Total:    Sum(nodes),
	}
}

// WriteReports marshals reports as indented JSON — the one rendering
// path behind the -stats flag, so the bytes are comparable across runs.
func WriteReports(w io.Writer, reports []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// WriteTraceFile renders a collector as Perfetto trace_event JSON into
// path ("-" writes to stdout) — the one rendering path behind every
// tool's -trace flag, mirroring WriteReports for -stats. The byte
// stream is canonical (trace.WritePerfetto sorts records under a total
// order), so two same-seed runs produce identical files.
func WriteTraceFile(path string, c *trace.Collector) error {
	if path == "-" {
		return c.WritePerfetto(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
