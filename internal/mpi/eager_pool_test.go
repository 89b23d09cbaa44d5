package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simtime"
)

// TestMatchRecvClearsVacatedSlot: matching an unexpected message out of
// order must not leave a stale alias of it past the queue's length,
// where it would outlive its recycling.
func TestMatchRecvClearsVacatedSlot(t *testing.T) {
	w := mustWorld(t, defaultCfg(2))
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(4096)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			for tag := 1; tag <= 3; tag++ {
				if err := r.Send(1, tag, va, 8); err != nil {
					return err
				}
			}
			return nil
		}
		// Tag 3 first queues tags 1 and 2 as unexpected; tag 2 is then
		// matched from the middle of that queue.
		for _, tag := range []int{3, 2} {
			if _, err := r.Recv(0, tag, va, 8); err != nil {
				return err
			}
		}
		q := r.pending[0]
		if len(q) != 1 || q[0].tag != 1 {
			return fmt.Errorf("unexpected queue holds %d messages, want only tag 1", len(q))
		}
		for i, m := range q[len(q):cap(q)] {
			if m != nil {
				return fmt.Errorf("slot %d past len still holds the tag-%d message", len(q)+i, m.tag)
			}
		}
		_, err = r.Recv(0, 1, va, 8)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEagerRecycledMessageCarriesOnlyNewLength: a 16-byte send through a
// message recycled from a 4 KiB one delivers exactly 16 bytes.
func TestEagerRecycledMessageCarriesOnlyNewLength(t *testing.T) {
	const big, small = 4096, 16
	w := mustWorld(t, defaultCfg(2))
	var first *message
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(big)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.WriteBytes(va, bytes.Repeat([]byte{0xAA}, big)); err != nil {
				return err
			}
			if err := r.Send(1, 1, va, big); err != nil {
				return err
			}
			// The zero-byte ack rides the recycled 4 KiB message back.
			if _, err := r.Recv(1, 9, va, 0); err != nil {
				return err
			}
			if len(w.eagerFree) != 1 || w.eagerFree[0] != first {
				return fmt.Errorf("free list %v, want the first message back", w.eagerFree)
			}
			if err := r.WriteBytes(va, bytes.Repeat([]byte{0x55}, small)); err != nil {
				return err
			}
			return r.Send(1, 2, va, small)
		}
		if _, err := r.Recv(0, 1, va, big); err != nil {
			return err
		}
		if len(w.eagerFree) != 1 {
			return fmt.Errorf("free list holds %d messages after the first receive, want 1", len(w.eagerFree))
		}
		first = w.eagerFree[0]
		if err := r.Send(0, 9, va, 0); err != nil {
			return err
		}
		if err := r.WriteBytes(va, bytes.Repeat([]byte{0xEE}, big)); err != nil {
			return err
		}
		n, err := r.Recv(0, 2, va, big)
		if err != nil {
			return err
		}
		if n != small {
			return fmt.Errorf("received %d bytes, want %d", n, small)
		}
		got := make([]byte, big)
		if err := r.ReadBytes(va, got); err != nil {
			return err
		}
		want := append(bytes.Repeat([]byte{0x55}, small), bytes.Repeat([]byte{0xEE}, big-small)...)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("receive buffer holds bytes past the 16-byte message")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.eagerFree) != 1 || w.eagerFree[0] != first {
		t.Fatalf("three eager sends used %d pooled messages, want the one recycled message", len(w.eagerFree))
	}
}

// TestEagerSendCopiesAtSend: eager Send returns once the payload is
// copied, so overwriting the source right away must not change what the
// receiver sees.
func TestEagerSendCopiesAtSend(t *testing.T) {
	const n = 1024
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
		r.Compute(2 * simtime.Millisecond) // every send lands before the first receive
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
}
