// Package cli carries the flag-parsing and setup boilerplate shared by
// every cmd tool: the -faults spec, the -stats toggle, the -policy
// selector and the -trace collector, plus the uniform
// "tool: error" exit path and the single rendering calls for reports
// and traces. Each tool declares which of the shared flags it takes,
// parses once, and gets back a resolved Env; tool-specific flags stay
// in the tool.
package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/trace"
)

// App accumulates the shared flag registrations for one tool before
// Parse resolves them. The zero value is unusable; start with New.
type App struct {
	tool string
	fs   *flag.FlagSet
	args func() []string

	statsFlag  *bool
	faultsFlag *string
	traceFlag  *string
	policyFlag *string
}

// New starts an App for a tool on the process-wide flag set (the normal
// path for a main package). Every tool gets -faults and -trace; the
// other shared flags are opt-in.
func New(tool string) *App {
	a := &App{tool: tool, fs: flag.CommandLine, args: func() []string { return os.Args[1:] }}
	a.registerCommon()
	return a
}

// NewEnv builds a resolved Env directly — a clean-run default (no
// faults, no trace) for tests that call a tool's helpers
// without going through flag parsing.
func NewEnv(tool string) *Env {
	return &Env{Tool: tool}
}

// newWith starts an App on a private FlagSet — the testable constructor.
func newWith(tool string, fs *flag.FlagSet, args []string) *App {
	a := &App{tool: tool, fs: fs, args: func() []string { return args }}
	a.registerCommon()
	return a
}

func (a *App) registerCommon() {
	a.faultsFlag = a.fs.String("faults", "", "deterministic fault spec, e.g. seed=7,hugecap=8,memlock=16m (see README)")
	a.traceFlag = a.fs.String("trace", "", "write a Perfetto trace of the run to this file ('-' = stdout)")
}

// StatsFlag registers the -stats toggle with a tool-specific usage
// string.
func (a *App) StatsFlag(usage string) *App {
	a.statsFlag = a.fs.Bool("stats", false, usage)
	return a
}

// PolicyFlag registers the -policy selector. The default is "static":
// the decision counters come for free while every placement decision
// stays exactly the configured strategy's.
func (a *App) PolicyFlag() *App {
	a.policyFlag = a.fs.String("policy", string(policy.Static),
		"placement policy (static|threshold|adaptive)")
	return a
}

// Env is the resolved shared configuration of one tool invocation.
type Env struct {
	// Tool is the invoking command's name, used in error messages and
	// report records.
	Tool string
	// Spec is the parsed -faults spec (nil = clean).
	Spec *faults.Spec
	// Stats reports the -stats toggle (false unless StatsFlag was
	// registered).
	Stats bool
	// Col is the -trace collector, nil when -trace is absent. Its
	// "tool", "machine" and "faults" metadata are pre-set.
	Col *trace.Collector
	// Policy is the validated -policy selection ("" unless PolicyFlag
	// was registered).
	Policy string

	tracePath string
}

// Parse parses the command line and resolves every registered shared
// flag, exiting through Fail on any error (unknown policy, malformed
// fault spec).
func (a *App) Parse() *Env {
	if a.fs == flag.CommandLine {
		flag.Parse()
	} else if err := a.fs.Parse(a.args()); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", a.tool, err)
		os.Exit(2)
	}
	e := &Env{Tool: a.tool, tracePath: *a.traceFlag}
	if a.statsFlag != nil {
		e.Stats = *a.statsFlag
	}
	if a.policyFlag != nil {
		if _, err := policy.ParseKind(*a.policyFlag); err != nil {
			e.Fail(err)
		}
		e.Policy = *a.policyFlag
	}
	var err error
	if e.Spec, err = faults.ParseSpec(*a.faultsFlag); err != nil {
		e.Fail(err)
	}
	if e.tracePath != "" {
		e.Col = trace.NewCollector()
		e.Col.SetMeta("tool", a.tool)
		e.Col.SetMeta("faults", e.Spec.String())
	}
	return e
}

// Fail prints "tool: err" and exits non-zero — the uniform error path.
func (e *Env) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", e.Tool, err)
	os.Exit(1)
}

// NewReport assembles a node.Report stamped with the tool name, fault
// spec and machine.
func (e *Env) NewReport(workload, machineName string, nodes []node.Stats) node.Report {
	return node.NewReport(e.Tool, workload, machineName, e.Spec.String(), nodes)
}

// WriteTrace renders the -trace collector (no-op when -trace is
// absent), exiting through Fail on error.
func (e *Env) WriteTrace() {
	if e.Col == nil {
		return
	}
	if err := node.WriteTraceFile(e.tracePath, e.Col); err != nil {
		e.Fail(err)
	}
}

// TracePath reports the -trace destination ("" when absent).
func (e *Env) TracePath() string { return e.tracePath }
