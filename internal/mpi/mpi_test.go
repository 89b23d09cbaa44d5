package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/vm"
)

func defaultCfg(ranks int) Config {
	return Config{
		Machine:   machine.Opteron(),
		Ranks:     ranks,
		Allocator: AllocHuge,
		LazyDereg: true,
		HugeATT:   true,
	}
}

func mustWorld(t testing.TB, cfg Config) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pingpong sends a payload of n bytes 0->1 and back, verifying content.
func pingpong(t *testing.T, cfg Config, n int) {
	t.Helper()
	w := mustWorld(t, cfg)
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(uint64(n) + 64)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.WriteBytes(va, want); err != nil {
				return err
			}
			if err := r.Send(1, 1, va, n); err != nil {
				return err
			}
			got := make([]byte, n)
			if _, err := r.Recv(1, 2, va, n); err != nil {
				return err
			}
			if err := r.ReadBytes(va, got); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("echo mismatch")
			}
		} else {
			if _, err := r.Recv(0, 1, va, n); err != nil {
				return err
			}
			got := make([]byte, n)
			if err := r.ReadBytes(va, got); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("payload mismatch at receiver")
			}
			if err := r.Send(0, 2, va, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxTime() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestPingPongEager(t *testing.T)      { pingpong(t, defaultCfg(2), 1024) }
func TestPingPongMid(t *testing.T)        { pingpong(t, defaultCfg(2), 12<<10) }
func TestPingPongRendezvous(t *testing.T) { pingpong(t, defaultCfg(2), 256<<10) }
func TestPingPongZeroLen(t *testing.T)    { pingpong(t, defaultCfg(2), 0) }

func TestPingPongAllAllocators(t *testing.T) {
	for _, a := range []AllocatorKind{AllocLibc, AllocHuge, AllocMorecore} {
		t.Run(string(a), func(t *testing.T) {
			cfg := defaultCfg(2)
			cfg.Allocator = a
			pingpong(t, cfg, 100<<10)
		})
	}
}

func TestPingPongEagerDereg(t *testing.T) {
	cfg := defaultCfg(2)
	cfg.LazyDereg = false
	pingpong(t, cfg, 256<<10)
}

func TestHeadToHeadSendrecv(t *testing.T) {
	// Both ranks Sendrecv large (rendezvous) messages simultaneously —
	// the pattern that deadlocks naive blocking implementations.
	w := mustWorld(t, defaultCfg(2))
	const n = 512 << 10
	err := w.Run(func(r *Rank) error {
		sva, err := r.Malloc(n)
		if err != nil {
			return err
		}
		rva, err := r.Malloc(n)
		if err != nil {
			return err
		}
		fill := bytes.Repeat([]byte{byte(r.ID() + 1)}, n)
		if err := r.WriteBytes(sva, fill); err != nil {
			return err
		}
		peer := 1 - r.ID()
		if _, err := r.Sendrecv(peer, 9, sva, n, peer, 9, rva, n); err != nil {
			return err
		}
		got := make([]byte, n)
		if err := r.ReadBytes(rva, got); err != nil {
			return err
		}
		want := byte(peer + 1)
		for i, b := range got {
			if b != want {
				return fmt.Errorf("byte %d: got %d want %d", i, b, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	w := mustWorld(t, defaultCfg(2))
	const k = 20
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(4096)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			for i := 0; i < k; i++ {
				if err := r.WriteBytes(va, []byte{byte(i)}); err != nil {
					return err
				}
				if err := r.Send(1, 5, va, 1); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			if _, err := r.Recv(0, 5, va, 1); err != nil {
				return err
			}
			b := make([]byte, 1)
			if err := r.ReadBytes(va, b); err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// Receiver asks for tag 2 first although tag 1 was sent first; the
	// unexpected queue must hold tag 1.
	w := mustWorld(t, defaultCfg(2))
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(4096)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			_ = r.WriteBytes(va, []byte{11})
			if err := r.Send(1, 1, va, 1); err != nil {
				return err
			}
			_ = r.WriteBytes(va, []byte{22})
			return r.Send(1, 2, va, 1)
		}
		b := make([]byte, 1)
		if _, err := r.Recv(0, 2, va, 1); err != nil {
			return err
		}
		_ = r.ReadBytes(va, b)
		if b[0] != 22 {
			return fmt.Errorf("tag 2 payload wrong: %d", b[0])
		}
		if _, err := r.Recv(0, 1, va, 1); err != nil {
			return err
		}
		_ = r.ReadBytes(va, b)
		if b[0] != 11 {
			return fmt.Errorf("tag 1 payload wrong: %d", b[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonicAndCausal(t *testing.T) {
	// A receiver can never complete a receive before the sender started
	// sending it (causality across clocks).
	w := mustWorld(t, defaultCfg(2))
	err := w.Run(func(r *Rank) error {
		va, _ := r.Malloc(64 << 10)
		if r.ID() == 0 {
			r.Compute(1_000_000) // sender is busy first
			return r.Send(1, 1, va, 64<<10)
		}
		before := r.Now()
		if _, err := r.Recv(0, 1, va, 64<<10); err != nil {
			return err
		}
		if r.Now() < 1_000_000 {
			return fmt.Errorf("receive completed at %d, before sender even started", r.Now())
		}
		if r.Now() <= before {
			return fmt.Errorf("clock did not advance")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := mustWorld(t, defaultCfg(p))
			err := w.Run(func(r *Rank) error {
				// Stagger arrival times.
				r.Compute(simtime_Ticks(r.ID()) * 100_000)
				if err := r.Barrier(); err != nil {
					return err
				}
				if r.Now() < simtime_Ticks(p-1)*100_000 {
					return fmt.Errorf("rank %d left barrier at %d, before last arrival", r.ID(), r.Now())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllreduceSumAndMax checks Sum and Max on 2, 4 and 8 ranks, then
// the in-place combine bit for bit against allreduceRef, on small pages
// and on hugepages, with the operand crossing a page boundary. The
// values include NaN, −0 and ±Inf (Max keeps a > b ? a : b, so NaN
// placement matters). In the "unwritten" fill the odd ranks never write
// their operand, which reads as zeros (−0 + 0 is +0). In the "ramp"
// fill every operand is written as the shared ramp pattern, so the
// destination's whole frames share ramp frames; another buffer sharing
// one of those ramp frames must read the same afterwards.
func TestAllreduceSumAndMax(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		w := mustWorld(t, defaultCfg(p))
		const count = 257
		err := w.Run(func(r *Rank) error {
			va, _ := r.Malloc(count * 8)
			xs := make([]float64, count)
			for i := range xs {
				xs[i] = float64(r.ID()+1) * float64(i+1)
			}
			if err := r.WriteF64(va, xs); err != nil {
				return err
			}
			if err := r.AllreduceF64(va, count, Sum); err != nil {
				return err
			}
			got := make([]float64, count)
			if err := r.ReadF64(va, got); err != nil {
				return err
			}
			sumRanks := float64(p*(p+1)) / 2
			for i := range got {
				want := sumRanks * float64(i+1)
				if math.Abs(got[i]-want) > 1e-9*math.Abs(want) {
					return fmt.Errorf("rank %d elem %d: got %g want %g", r.ID(), i, got[i], want)
				}
			}
			// Max reduction.
			for i := range xs {
				xs[i] = float64(r.ID())
			}
			if err := r.WriteF64(va, xs); err != nil {
				return err
			}
			if err := r.AllreduceF64(va, count, Max); err != nil {
				return err
			}
			if err := r.ReadF64(va, got); err != nil {
				return err
			}
			for i := range got {
				if got[i] != float64(p-1) {
					return fmt.Errorf("max elem %d: got %g want %d", i, got[i], p-1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
	// 17600 bytes: over the eager limit, so an operand travels by RDMA
	// write, frame to frame, and an unwritten one arrives as
	// never-written frames.
	const count = 2200
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		1.5, -2.25, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	rampC := func(rank int) int { return 40 + 3*rank }
	for _, alloc := range []AllocatorKind{AllocLibc, AllocHuge} {
		for _, fill := range []string{"values", "unwritten", "ramp"} {
			for _, op := range []ReduceOp{Sum, Max} {
				for _, p := range []int{2, 4} {
					xs := make([][]float64, p)
					for r := range xs {
						xs[r] = make([]float64, count)
						for i := range xs[r] {
							switch {
							case fill == "ramp":
								var b [8]byte
								for k := range b {
									b[k] = byte(rampC(r) + 8*i + k)
								}
								xs[r][i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
							case fill == "values" || r%2 == 0:
								xs[r][i] = specials[(5*r+3*i)%len(specials)]
							}
						}
					}
					want := allreduceRef(op, xs)
					cfg := defaultCfg(p)
					cfg.Allocator = alloc
					name := fmt.Sprintf("%s/%s/op%d/p=%d", alloc, fill, op, p)
					w := mustWorld(t, cfg)
					err := w.Run(func(r *Rank) error {
						ps := uint64(machine.SmallPageSize)
						if alloc == AllocHuge {
							ps = machine.HugePageSize
						}
						base, err := r.Malloc(ps + 16*count + 64)
						if err != nil {
							return err
						}
						// The operand straddles a page boundary at its middle.
						va := vm.VA((uint64(base)+8*count+ps-1)/ps*ps - 4*count)
						if _, class, err := r.AS().Translate(va); err != nil || class.Size() != ps {
							return fmt.Errorf("operand at %#x: class %v, err %v; want %d-byte pages", uint64(va), class, err, ps)
						}
						// The first whole small frame of the operand, and a
						// witness frame written with the same ramp bytes.
						whole := (va + machine.SmallPageSize - 1) / machine.SmallPageSize * machine.SmallPageSize
						wc := rampC(r.ID()) + int(whole-va)
						wbase, err := r.Malloc(2 * machine.SmallPageSize)
						if err != nil {
							return err
						}
						witness := (wbase + machine.SmallPageSize - 1) / machine.SmallPageSize * machine.SmallPageSize
						switch {
						case fill == "ramp":
							if err := r.WriteRamp(va, rampC(r.ID()), 8*count); err != nil {
								return err
							}
							if err := r.WriteRamp(witness, wc, machine.SmallPageSize); err != nil {
								return err
							}
						case fill == "values" || r.ID()%2 == 0:
							if err := r.WriteF64(va, xs[r.ID()]); err != nil {
								return err
							}
						}
						if err := r.AllreduceF64(va, count, op); err != nil {
							return err
						}
						got := make([]float64, count)
						if err := r.ReadF64(va, got); err != nil {
							return err
						}
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[r.ID()][i]) {
								return fmt.Errorf("rank %d elem %d: got %v (%#x), want %v (%#x)", r.ID(), i,
									got[i], math.Float64bits(got[i]), want[r.ID()][i], math.Float64bits(want[r.ID()][i]))
							}
						}
						if fill == "ramp" {
							b := make([]byte, machine.SmallPageSize)
							if err := r.ReadBytes(witness, b); err != nil {
								return err
							}
							for i := range b {
								if b[i] != byte(wc+i) {
									return fmt.Errorf("rank %d: the reduction changed a shared ramp frame at byte %d: %#x, want %#x",
										r.ID(), i, b[i], byte(wc+i))
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// allreduceRef is the scalar reference for AllreduceF64: what recursive
// doubling leaves on every rank, each round combining a rank's partial
// result, as the left operand, with its peer's.
func allreduceRef(op ReduceOp, xs [][]float64) [][]float64 {
	part := xs
	for mask := 1; mask < len(xs); mask <<= 1 {
		next := make([][]float64, len(xs))
		for r := range next {
			next[r] = make([]float64, len(xs[r]))
			for i := range next[r] {
				a, b := part[r][i], part[r^mask][i]
				switch {
				case op == Sum:
					next[r][i] = a + b
				case a > b:
					next[r][i] = a
				default:
					next[r][i] = b
				}
			}
		}
		part = next
	}
	return part
}

// TestAllreduceRejectsUnalignedBuffer checks that AllreduceF64 on a
// buffer that is not 8-byte aligned fails on every rank with an error
// naming the requirement.
func TestAllreduceRejectsUnalignedBuffer(t *testing.T) {
	const p = 2
	w := mustWorld(t, defaultCfg(p))
	errs := make([]error, p)
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(64)
		if err != nil {
			return err
		}
		errs[r.ID()] = r.AllreduceF64(va+4, 4, Sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "8-byte-aligned") {
			t.Fatalf("rank %d: AllreduceF64 on an unaligned buffer returned %v, want an alignment error", i, err)
		}
	}
}

// TestAllreduceRejectsNonPowerOfTwo checks that AllreduceF64 on a rank
// count that is not a power of two fails on every rank with an error
// naming the requirement.
func TestAllreduceRejectsNonPowerOfTwo(t *testing.T) {
	const p = 3
	w := mustWorld(t, defaultCfg(p))
	errs := make([]error, p)
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(64)
		if err != nil {
			return err
		}
		errs[r.ID()] = r.AllreduceF64(va, 8, Sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "power-of-two rank count") {
			t.Fatalf("rank %d: AllreduceF64 on %d ranks returned %v, want a power-of-two error", i, p, err)
		}
	}
}

// TestAllreduceCombineReusesScratch checks AllreduceF64 against the
// host-computed sum around 512 float64s (one 4 KiB frame), by recursive
// doubling on 2 and 4 ranks, and that a repeated reduction of the same
// count reuses the rank's scratch buffer: a warm eager round allocates
// no object. Every value is a multiple of 1/4 well inside float64's exact
// range, so the sum is exact in any order.
func TestAllreduceCombineReusesScratch(t *testing.T) {
	counts := []int{1, 511, 512, 513, 4096}
	for _, p := range []int{2, 4} {
		w := mustWorld(t, defaultCfg(p))
		for i := 0; i < p; i++ {
			if r := w.Rank(i); r.scratchVA != 0 {
				t.Fatalf("p=%d: a fresh world's rank %d holds collective scratch", p, i)
			}
		}
		allocs := make([]float64, p)
		err := w.Run(func(r *Rank) error {
			va, err := r.Malloc(8 * 4096)
			if err != nil {
				return err
			}
			for _, count := range counts {
				xs := make([]float64, count)
				got := make([]float64, count)
				var scratch vm.VA
				for pass := 0; pass < 2; pass++ {
					for i := range xs {
						xs[i] = float64(r.ID()*count+i+pass) * 0.25
					}
					if err := r.WriteF64(va, xs); err != nil {
						return err
					}
					if err := r.AllreduceF64(va, count, Sum); err != nil {
						return err
					}
					if err := r.ReadF64(va, got); err != nil {
						return err
					}
					for i := range got {
						var want float64
						for src := 0; src < p; src++ {
							want += float64(src*count+i+pass) * 0.25
						}
						if got[i] != want {
							return fmt.Errorf("count %d pass %d rank %d elem %d: got %g want %g",
								count, pass, r.ID(), i, got[i], want)
						}
					}
					if pass == 1 && r.scratchVA != scratch {
						return fmt.Errorf("count %d rank %d: a repeated reduction moved the scratch from %#x to %#x",
							count, r.ID(), uint64(scratch), uint64(r.scratchVA))
					}
					scratch = r.scratchVA
				}
			}
			// Every rank runs the same number of warm rounds, so the
			// collective stays matched. 1024 float64s travel eager; a
			// rendezvous message allocates its own handshake queues.
			var rerr error
			allocs[r.ID()] = testing.AllocsPerRun(10, func() {
				if err := r.AllreduceF64(va, 1024, Sum); err != nil {
					rerr = err
				}
			})
			return rerr
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, a := range allocs {
			if a != 0 {
				t.Fatalf("p=%d: a warm AllreduceF64 round allocates %.1f objects on rank %d, want 0", p, a, i)
			}
		}
	}
}

// TestF64RoundTripAcrossChunksAndPages writes and reads back more than one
// 4 KiB encoding chunk of float64s from an unaligned address on base
// pages, and checks that a range with an unmapped tail still fails with
// the address space's error.
func TestF64RoundTripAcrossChunksAndPages(t *testing.T) {
	cfg := defaultCfg(1)
	cfg.Allocator = AllocLibc
	w := mustWorld(t, cfg)
	err := w.Run(func(r *Rank) error {
		const n = 1500 // 12000 bytes: three chunks, four pages
		base, err := r.as.MapSmall(4 * machine.SmallPageSize)
		if err != nil {
			return err
		}
		va := base + 4093 // unaligned, and the first value straddles a page
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)*1.5 - 7
		}
		if err := r.WriteF64(va, xs); err != nil {
			return err
		}
		got := make([]float64, n)
		if err := r.ReadF64(va, got); err != nil {
			return err
		}
		for i := range xs {
			if got[i] != xs[i] {
				return fmt.Errorf("value %d: got %g want %g", i, got[i], xs[i])
			}
		}
		// The mapping is the newest, so the page after it is unmapped.
		tail := base + 3*machine.SmallPageSize + 8
		if err := r.WriteF64(tail, xs); !errors.Is(err, vm.ErrUnmapped) {
			return fmt.Errorf("write over an unmapped tail: got %v, want %v", err, vm.ErrUnmapped)
		}
		if err := r.ReadF64(tail, got); !errors.Is(err, vm.ErrUnmapped) {
			return fmt.Errorf("read over an unmapped tail: got %v, want %v", err, vm.ErrUnmapped)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallPermutation checks that Alltoallv over equal blocks is the
// all-to-all permutation: block j on rank i comes from rank j's block i.
func TestAlltoallPermutation(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		w := mustWorld(t, defaultCfg(p))
		const block = 4096
		err := w.Run(func(r *Rank) error {
			sva, _ := r.Malloc(uint64(p * block))
			rva, _ := r.Malloc(uint64(p * block))
			for i := 0; i < p; i++ {
				pattern := bytes.Repeat([]byte{byte(r.ID()*16 + i)}, block)
				if err := r.WriteBytes(sva+vm.VA(i*block), pattern); err != nil {
					return err
				}
			}
			counts, displs := make([]int, p), make([]int, p)
			for i := range counts {
				counts[i], displs[i] = block, i*block
			}
			if err := r.Alltoallv(sva, counts, displs, rva, counts, displs); err != nil {
				return err
			}
			for j := 0; j < p; j++ {
				got := make([]byte, block)
				_ = r.ReadBytes(rva+vm.VA(j*block), got)
				want := byte(j*16 + r.ID())
				for _, b := range got {
					if b != want {
						return fmt.Errorf("rank %d block %d: got %d want %d", r.ID(), j, b, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallvVariableCounts(t *testing.T) {
	const p = 4
	w := mustWorld(t, defaultCfg(p))
	err := w.Run(func(r *Rank) error {
		// Rank i sends (i+1)*(j+1)*100 bytes to rank j.
		sc := make([]int, p)
		sd := make([]int, p)
		rc := make([]int, p)
		rd := make([]int, p)
		stot, rtot := 0, 0
		for j := 0; j < p; j++ {
			sc[j] = (r.ID() + 1) * (j + 1) * 100
			sd[j] = stot
			stot += sc[j]
			rc[j] = (j + 1) * (r.ID() + 1) * 100
			rd[j] = rtot
			rtot += rc[j]
		}
		sva, _ := r.Malloc(uint64(stot))
		rva, _ := r.Malloc(uint64(rtot))
		for j := 0; j < p; j++ {
			if err := r.WriteBytes(sva+vm.VA(sd[j]), bytes.Repeat([]byte{byte(r.ID()*8 + j)}, sc[j])); err != nil {
				return err
			}
		}
		if err := r.Alltoallv(sva, sc, sd, rva, rc, rd); err != nil {
			return err
		}
		for j := 0; j < p; j++ {
			got := make([]byte, rc[j])
			_ = r.ReadBytes(rva+vm.VA(rd[j]), got)
			want := byte(j*8 + r.ID())
			for _, b := range got {
				if b != want {
					return fmt.Errorf("rank %d from %d corrupted", r.ID(), j)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLazyDeregSpeedsUpRepeatedSends(t *testing.T) {
	// Figure 5's mechanism at the MPI level: the second large send on the
	// same buffer is much cheaper with lazy deregistration on.
	timeFor := func(lazy bool) (first, second simtime_Ticks) {
		cfg := defaultCfg(2)
		cfg.Allocator = AllocLibc
		cfg.LazyDereg = lazy
		w := mustWorld(t, cfg)
		var f, s simtime_Ticks
		err := w.Run(func(r *Rank) error {
			const n = 1 << 20
			va, _ := r.Malloc(n)
			if r.ID() == 0 {
				t0 := r.Now()
				if err := r.Send(1, 1, va, n); err != nil {
					return err
				}
				t1 := r.Now()
				if err := r.Send(1, 2, va, n); err != nil {
					return err
				}
				f, s = t1-t0, r.Now()-t1
				return nil
			}
			if _, err := r.Recv(0, 1, va, n); err != nil {
				return err
			}
			_, err := r.Recv(0, 2, va, n)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return f, s
	}
	_, lazySecond := timeFor(true)
	_, eagerSecond := timeFor(false)
	if float64(lazySecond) > 0.9*float64(eagerSecond) {
		t.Fatalf("lazy second send %d not faster than eager %d", lazySecond, eagerSecond)
	}
}

func TestPinnedMemoryRemainsWithLazyDereg(t *testing.T) {
	// The drawback the paper highlights: "memory remains allocated to the
	// application during their whole runtime".
	cfg := defaultCfg(2)
	cfg.LazyDereg = true
	w := mustWorld(t, cfg)
	err := w.Run(func(r *Rank) error {
		const n = 1 << 20
		va, _ := r.Malloc(n)
		if r.ID() == 0 {
			return r.Send(1, 1, va, n)
		}
		_, err := r.Recv(0, 1, va, n)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if w.Rank(i).Cache().Stats().PinnedBytes == 0 {
			t.Fatalf("rank %d: lazy dereg should keep memory pinned", i)
		}
	}
}

func TestPackedVsGatheredEquivalence(t *testing.T) {
	for _, mode := range []string{"packed", "gathered"} {
		t.Run(mode, func(t *testing.T) {
			w := mustWorld(t, defaultCfg(2))
			const pieceLen, npieces = 96, 8
			err := w.Run(func(r *Rank) error {
				base, _ := r.Malloc(64 << 10)
				pieces := make([]Piece, npieces)
				for i := range pieces {
					pieces[i] = Piece{VA: base + vm.VA(i*1024), Len: pieceLen}
				}
				if r.ID() == 0 {
					for i := range pieces {
						_ = r.WriteBytes(pieces[i].VA, bytes.Repeat([]byte{byte(i + 1)}, pieceLen))
					}
					if mode == "packed" {
						return r.SendPacked(1, 3, pieces)
					}
					return r.SendGathered(1, 3, pieces)
				}
				if err := r.RecvUnpack(0, 3, pieces); err != nil {
					return err
				}
				for i := range pieces {
					got := make([]byte, pieceLen)
					_ = r.ReadBytes(pieces[i].VA, got)
					for _, b := range got {
						if b != byte(i+1) {
							return fmt.Errorf("piece %d corrupted", i)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendGatheredTracesItsLayers pins SendGathered's trace attribution:
// its registration, post and release are booked to the layers that do
// them, so a traced gathered send shows a regcache acquire span and an
// hca post span inside its mpi span. Tracing moves no virtual time.
func TestSendGatheredTracesItsLayers(t *testing.T) {
	run := func(col *trace.Collector) *World {
		cfg := defaultCfg(2)
		cfg.Trace = col
		w := mustWorld(t, cfg)
		err := w.Run(func(r *Rank) error {
			base, _ := r.Malloc(64 << 10)
			pieces := make([]Piece, 8)
			for i := range pieces {
				pieces[i] = Piece{VA: base + vm.VA(i*1024), Len: 96}
			}
			if r.ID() == 0 {
				return r.SendGathered(1, 3, pieces)
			}
			return r.RecvUnpack(0, 3, pieces)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	col := trace.NewCollector()
	traced, plain := run(col), run(nil)
	for i := 0; i < 2; i++ {
		if a, b := traced.Rank(i).Now(), plain.Rank(i).Now(); a != b {
			t.Fatalf("rank %d ends at tick %d traced, %d untraced", i, a, b)
		}
	}
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := trace.ParsePerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var call *trace.PSpan
	for i, sp := range d.Spans {
		if sp.PID == 0 && sp.Layer == string(trace.LMPI) && sp.Name == "SendGathered" {
			call = &d.Spans[i]
		}
	}
	if call == nil {
		t.Fatal("rank 0 has no SendGathered span")
	}
	inside := func(layer trace.Layer, name string) bool {
		for _, sp := range d.Spans {
			if sp.PID == 0 && sp.TID == call.TID && sp.Layer == string(layer) && sp.Name == name &&
				sp.Start >= call.Start && sp.End() <= call.End() {
				return true
			}
		}
		return false
	}
	if !inside(trace.LRegcache, "acquire") {
		t.Fatal("no regcache acquire span inside SendGathered")
	}
	if !inside(trace.LHCA, "post") {
		t.Fatal("no hca post span inside SendGathered")
	}
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{Ranks: 2}); err == nil {
		t.Fatal("missing machine accepted")
	}
	if _, err := NewWorld(Config{Machine: machine.Opteron(), Ranks: 0}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := NewWorld(Config{Machine: machine.Opteron(), Ranks: 1, Allocator: "bogus"}); err == nil {
		t.Fatal("bogus allocator accepted")
	}
}

// TestHugeATTNeedsAdapterSupport pins the one strategy check every path
// shares: the ATT driver patch on an adapter that cannot hold 2 MiB
// translations is rejected by node.Config.Validate, so both a
// standalone host and a whole job refuse it.
func TestHugeATTNeedsAdapterSupport(t *testing.T) {
	m := *machine.Opteron()
	m.HCA.SupportsHugeATT = false
	if _, err := node.New(node.Config{Machine: &m, HugeATT: true}); err == nil {
		t.Fatal("node.New accepted HugeATT on an adapter without 2 MiB ATT entries")
	}
	cfg := defaultCfg(2)
	cfg.Machine = &m
	if _, err := NewWorld(cfg); err == nil {
		t.Fatal("NewWorld accepted HugeATT on an adapter without 2 MiB ATT entries")
	}
	cfg.HugeATT = false
	if _, err := NewWorld(cfg); err != nil {
		t.Fatalf("unpatched driver on the same adapter rejected: %v", err)
	}
}

// TestCommTimeMatchesTraceSpans pins where the mpiP-style data lives:
// each rank's CommTime is the sum of its outermost mpi spans in the
// trace, one span per call, named by the call.
func TestCommTimeMatchesTraceSpans(t *testing.T) {
	cfg := defaultCfg(2)
	cfg.Trace = trace.NewCollector()
	w := mustWorld(t, cfg)
	err := w.Run(func(r *Rank) error {
		va, _ := r.Malloc(4096)
		r.Compute(1000)
		if r.ID() == 0 {
			return r.Send(1, 1, va, 128)
		}
		_, err := r.Recv(0, 1, va, 128)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := trace.ParsePerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Outermost mpi spans on each rank's main track: an mpi span not
	// inside an earlier one (protocol phases nest inside their call).
	outer := make([][]trace.PSpan, w.Size())
	for _, sp := range d.Spans {
		if sp.Layer != string(trace.LMPI) || sp.TID != trace.TrackMain {
			continue
		}
		if k := len(outer[sp.PID]); k > 0 && sp.Start < outer[sp.PID][k-1].End() {
			continue
		}
		outer[sp.PID] = append(outer[sp.PID], sp)
	}
	var compute simtime.Ticks
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		var sum simtime.Ticks
		for _, sp := range outer[i] {
			sum += sp.Dur
		}
		if r.CommTime() <= 0 || r.CommTime() != sum {
			t.Fatalf("rank %d: CommTime %d, outermost mpi spans sum to %d", i, r.CommTime(), sum)
		}
		compute += r.ComputeTime()
	}
	if len(outer[0]) != 1 || outer[0][0].Name != "Send" {
		t.Fatalf("rank 0 outermost mpi spans = %+v, want one Send", outer[0])
	}
	if compute < 2000 {
		t.Fatalf("compute time %d, want >= 2000", compute)
	}
}

// simtime_Ticks is a local alias to keep test call sites short.
type simtime_Ticks = simtime.Ticks
