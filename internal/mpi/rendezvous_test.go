package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/vm"
)

// TestRendezvousSendCopiesAtSend is the rendezvous twin of
// TestEagerSendCopiesAtSend: the payload must have left the source
// buffer by the time Send returns.
func TestRendezvousSendCopiesAtSend(t *testing.T) {
	const n = 256 << 10
	t.Run("write", func(t *testing.T) {
		w := mustWorld(t, defaultCfg(2))
		err := w.Run(func(r *Rank) error {
			va, err := r.Malloc(n)
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				for tag, b := range []byte{0x11, 0x22, 0x33} {
					if err := r.WriteBytes(va, bytes.Repeat([]byte{b}, n)); err != nil {
						return err
					}
					if err := r.Send(1, tag, va, n); err != nil {
						return err
					}
				}
				return r.WriteBytes(va, bytes.Repeat([]byte{0xFF}, n))
			}
			r.Compute(2 * simtime.Millisecond)
			got := make([]byte, n)
			for tag, b := range []byte{0x11, 0x22, 0x33} {
				if _, err := r.Recv(0, tag, va, n); err != nil {
					return err
				}
				if err := r.ReadBytes(va, got); err != nil {
					return err
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{b}, n)) {
					return fmt.Errorf("message %d carries %#x..., want %#x", tag, got[0], b)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSendrecvRejectsOverlap: MPI forbids overlapping send and receive
// buffers, and with direct placement an overlap could let incoming bytes
// land before the send half reads its own. Adjacent buffers are fine.
func TestSendrecvRejectsOverlap(t *testing.T) {
	const n = 64 << 10
	w := mustWorld(t, defaultCfg(2))
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(3 * n)
		if err != nil {
			return err
		}
		peer := 1 - r.ID()
		for _, off := range []int{0, n / 2, -n + 1} {
			_, err := r.Sendrecv(peer, 0, va+n, n, peer, 0, va+n+vm.VA(off), n)
			if err == nil || !strings.Contains(err.Error(), "overlaps") {
				return fmt.Errorf("receive buffer at offset %d: got %v, want an overlap error", off, err)
			}
		}
		for _, off := range []int{-n, n} {
			if _, err := r.Sendrecv(peer, 1, va+n, n, peer, 1, va+n+vm.VA(off), n); err != nil {
				return fmt.Errorf("adjacent receive buffer at offset %d: %w", off, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousSendrecvAllocatesNoPayload pins the zero-copy
// rendezvous: once the buffers' frames exist, a 1 MiB Sendrecv ring
// allocates a small fraction of one payload per message, because the
// bytes move frame to frame with no buffer in between.
func TestRendezvousSendrecvAllocatesNoPayload(t *testing.T) {
	const n, iters = 1 << 20, 8
	w := mustWorld(t, defaultCfg(2))
	var before, after runtime.MemStats
	err := w.Run(func(r *Rank) error {
		sva, err := r.Malloc(n)
		if err != nil {
			return err
		}
		rva, err := r.Malloc(n)
		if err != nil {
			return err
		}
		if err := r.WriteBytes(sva, bytes.Repeat([]byte{byte(r.ID() + 1)}, n)); err != nil {
			return err
		}
		peer := 1 - r.ID()
		ring := func(tag int) error {
			_, err := r.Sendrecv(peer, tag, sva, n, peer, tag, rva, n)
			return err
		}
		// Warm up: the first message backs the receive buffer's frames
		// and fills the registration cache.
		if err := ring(0); err != nil {
			return err
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		for it := 1; it <= iters; it++ {
			if err := ring(it); err != nil {
				return err
			}
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perMsg := (after.TotalAlloc - before.TotalAlloc) / (2 * iters)
	if perMsg > n/16 {
		t.Fatalf("%d bytes allocated per 1 MiB rendezvous message, want < %d", perMsg, n/16)
	}
}
