package mpi

// Strategy is one named data-placement configuration of the paper: which
// allocation library the job preloads, whether the registration cache
// (lazy deregistration) is on, and whether the driver installs 2 MiB
// ATT entries, optionally with a placement-policy engine on top. It is
// the "column" dimension of every paper table and sweep grid.
type Strategy struct {
	Name      string        `json:"name"`
	Allocator AllocatorKind `json:"allocator"`
	LazyDereg bool          `json:"lazy_dereg"`
	HugeATT   bool          `json:"huge_att"`
	// Policy selects the placement-policy engine on every rank ("" =
	// none — the legacy fixed strategy; see internal/policy).
	Policy string `json:"policy,omitempty"`
}

// Strategies returns the named placement strategies, in comparison
// order. The first four are the four Figure 5 curves (the ATT patch on,
// as in the paper's modified OpenIB stack); "huge-lazy-noatt" is the
// unpatched-driver ablation of Section 5.1. "threshold" and "adaptive"
// run the best fixed configuration (huge-lazy) with a live
// placement-policy engine on top.
func Strategies() []Strategy {
	return []Strategy{
		{Name: "small", Allocator: AllocLibc, LazyDereg: false, HugeATT: true},
		{Name: "huge", Allocator: AllocHuge, LazyDereg: false, HugeATT: true},
		{Name: "small-lazy", Allocator: AllocLibc, LazyDereg: true, HugeATT: true},
		{Name: "huge-lazy", Allocator: AllocHuge, LazyDereg: true, HugeATT: true},
		{Name: "huge-lazy-noatt", Allocator: AllocHuge, LazyDereg: true, HugeATT: false},
		{Name: "threshold", Allocator: AllocHuge, LazyDereg: true, HugeATT: true, Policy: "threshold"},
		{Name: "adaptive", Allocator: AllocHuge, LazyDereg: true, HugeATT: true, Policy: "adaptive"},
	}
}

// StrategyByName resolves a named strategy.
func StrategyByName(name string) (Strategy, bool) {
	for _, s := range Strategies() {
		if s.Name == name {
			return s, true
		}
	}
	return Strategy{}, false
}

// MustStrategy resolves a named strategy that is known to exist (the
// table entries the figures are defined over); an unknown name panics.
func MustStrategy(name string) Strategy {
	s, ok := StrategyByName(name)
	if !ok {
		panic("mpi: unknown strategy " + name)
	}
	return s
}

// Apply returns c with the strategy's placement knobs set: the
// allocator, lazy deregistration and the ATT patch always, the
// placement-policy engine only when the strategy names one (so a
// caller's own policy choice survives the fixed strategies).
func (s Strategy) Apply(c Config) Config {
	c.Allocator = s.Allocator
	c.LazyDereg = s.LazyDereg
	c.HugeATT = s.HugeATT
	if s.Policy != "" {
		c.Policy = s.Policy
	}
	return c
}
