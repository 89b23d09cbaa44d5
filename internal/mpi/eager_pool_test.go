package mpi

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/simtime"
	"repro/internal/vm"
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

// piecesBufs is one rank's buffers for a repeated AlltoallvPieces: for
// every peer, per pieces of plen bytes, spaced 2*plen apart in the send
// buffer so no two are contiguous, and a receive buffer laid out by
// source rank.
type piecesBufs struct {
	pieces     [][]Piece
	recvVA     vm.VA
	rc, rd     []int
	gatherOnce int64 // payload bytes one call gathers when every list takes the gather branch
}

func newPiecesBufs(r *Rank, per, plen int) (*piecesBufs, error) {
	p := r.Size()
	sendVA, err := r.Malloc(uint64(p * per * 2 * plen))
	if err != nil {
		return nil, err
	}
	if err := r.WriteRamp(sendVA, r.ID(), p*per*2*plen); err != nil {
		return nil, err
	}
	b := &piecesBufs{pieces: make([][]Piece, p), rc: make([]int, p), rd: make([]int, p)}
	if b.recvVA, err = r.Malloc(uint64(p * per * plen)); err != nil {
		return nil, err
	}
	for d := 0; d < p; d++ {
		for i := 0; i < per; i++ {
			b.pieces[d] = append(b.pieces[d], Piece{VA: sendVA + vm.VA((d*per+i)*2*plen), Len: plen})
		}
		b.rc[d], b.rd[d] = per*plen, d*per*plen
	}
	b.gatherOnce = int64((p - 1) * per * plen)
	return b, nil
}

func (b *piecesBufs) exchange(r *Rank) error {
	return r.AlltoallvPieces(b.pieces, b.recvVA, b.rc, b.rd)
}

// gatheredBytes sums every node's adapter gather bytes.
func gatheredBytes(w *World) int64 {
	var n int64
	for _, s := range w.NodeStats() {
		n += s.HCA.BytesGather
	}
	return n
}

// eagerPoolSnapshot maps every message in the world's eager pool to the
// first byte of its payload buffer.
func eagerPoolSnapshot(w *World) map[*message]*byte {
	out := make(map[*message]*byte, len(w.eagerFree))
	for _, m := range w.eagerFree {
		var p *byte
		if cap(m.data) > 0 {
			p = &m.data[:1][0]
		}
		out[m] = p
	}
	return out
}

// TestAlltoallvPiecesGatherReusesEagerPool: once warm, the gathered
// sends of a repeated AlltoallvPieces take their messages and payload
// buffers from the world's eager pool, and the receivers give them all
// back, so no round allocates a payload.
func TestAlltoallvPiecesGatherReusesEagerPool(t *testing.T) {
	const ranks, per, plen, rounds = 4, 2, 2048, 5
	w := mustWorld(t, defaultCfg(ranks))
	defer w.Close()
	bufs := make([]*piecesBufs, ranks)
	run := func(n int) {
		t.Helper()
		err := w.Run(func(r *Rank) error {
			if bufs[r.ID()] == nil {
				b, err := newPiecesBufs(r, per, plen)
				if err != nil {
					return err
				}
				bufs[r.ID()] = b
			}
			for range n {
				if err := bufs[r.ID()].exchange(r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	warm := eagerPoolSnapshot(w)
	if len(warm) == 0 {
		t.Fatal("the warm-up exchange left no message in the eager pool")
	}
	g0 := gatheredBytes(w)
	run(rounds)
	if got, want := gatheredBytes(w)-g0, int64(rounds*ranks)*bufs[0].gatherOnce; got != want {
		t.Fatalf("adapters gathered %d bytes over %d rounds, want %d: not every piece list took the gather branch", got, rounds, want)
	}
	if after := eagerPoolSnapshot(w); !maps.Equal(after, warm) {
		t.Fatalf("after %d more rounds the eager pool holds %d messages, want the warm-up's %d with the same payload buffers",
			rounds, len(after), len(warm))
	}
}
