package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simtime"
)

// TestDisabledFormsAreInert exercises every method on the nil/zero
// disabled forms: nothing may panic and nothing may record.
func TestDisabledFormsAreInert(t *testing.T) {
	var col *Collector
	col.SetMeta("k", "v")
	tr := col.Tracer("ghost")
	if tr != nil {
		t.Fatal("nil collector must hand out nil tracers")
	}
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	tc := tr.At(TrackMain, 100)
	if tc.Enabled() {
		t.Fatal("zero Ctx reports Enabled")
	}
	tc = tc.Advance(5).Span(LMPI, "Send", 10).OnTrack(TrackSend)
	tc.SpanAt(LVerbs, "RegMR", 0, 3)
	tc.Event(LVM, "map.huge")
	tc.FlowBegin(1)
	tc.FlowEnd(1)
	cur := tr.Cursor(TrackMain)
	if cur.Enabled() {
		t.Fatal("nil cursor reports Enabled")
	}
	cur.Set(42)
	cur.Event(LPhys, "hugepool.empty")
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var js map[string]any
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		t.Fatalf("nil collector still must write valid JSON: %v", err)
	}
}

// TestCtxAdvancesThroughSpans pins the Ctx value semantics: Span moves
// the position past the emitted interval, Advance skips uninstrumented
// cost, OnTrack changes only the track.
func TestCtxAdvancesThroughSpans(t *testing.T) {
	col := NewCollector()
	tr := col.Tracer("n")
	tc := tr.At(TrackMain, 100)
	tc = tc.Span(LVerbs, "pin", 30)
	if tc.Now() != 130 {
		t.Fatalf("after Span(30): Now = %d, want 130", tc.Now())
	}
	tc = tc.Advance(20)
	if tc.Now() != 150 {
		t.Fatalf("after Advance(20): Now = %d, want 150", tc.Now())
	}
	side := tc.OnTrack(TrackHCATx)
	if side.Now() != 150 {
		t.Fatal("OnTrack must preserve the instant")
	}
	// The original is unchanged — Ctx is a value.
	if tc.Now() != 150 {
		t.Fatal("OnTrack mutated its receiver")
	}
}

// record emits a fixed scene; permute controls insertion order, which
// must not affect the rendered bytes.
func record(permute bool) *Collector {
	col := NewCollector()
	col.SetMeta("tool", "test")
	a := col.Tracer("rank0")
	b := col.Tracer("rank1")
	emitA := func() {
		tc := a.At(TrackMain, 0)
		tc = tc.Span(LMPI, "Send", 100, I64("bytes", 4096))
		tc.FlowBegin(7)
		a.At(TrackHCATx, 40).Span(LHCA, "dma.gather", 30)
		a.Cursor(TrackMain).Event(LVM, "map.huge", I64("pages", 2))
	}
	emitB := func() {
		tc := b.At(TrackMain, 60)
		tc.FlowEnd(7)
		tc.Span(LMPI, "Recv", 80)
	}
	if permute {
		emitB()
		emitA()
	} else {
		emitA()
		emitB()
	}
	return col
}

func TestWriterIsCanonicalUnderInsertionOrder(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := record(false).WritePerfetto(&b1); err != nil {
		t.Fatal(err)
	}
	if err := record(true).WritePerfetto(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("insertion order leaked into the rendered trace bytes")
	}
	var js map[string]any
	if err := json.Unmarshal(b1.Bytes(), &js); err != nil {
		t.Fatalf("writer emitted invalid JSON: %v", err)
	}
}

// TestRoundTripTicksExact writes odd tick values (whose µs rendering is
// fractional) and parses them back: the 512 ticks/µs conversion must
// round-trip without loss.
func TestRoundTripTicksExact(t *testing.T) {
	col := NewCollector()
	tr := col.Tracer("n")
	starts := []simtime.Ticks{0, 1, 3, 511, 513, 1_000_003, 123_456_789}
	for i, s := range starts {
		tr.At(TrackMain, s).Span(LVerbs, "s", simtime.Ticks(i*7+1), I64("i", int64(i)))
	}
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParsePerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != len(starts) {
		t.Fatalf("parsed %d spans, want %d", len(d.Spans), len(starts))
	}
	seen := map[simtime.Ticks]PSpan{}
	for _, s := range d.Spans {
		seen[s.Start] = s
	}
	for i, s := range starts {
		ps, ok := seen[s]
		if !ok {
			t.Fatalf("span starting at %d lost in round trip", s)
		}
		if ps.Dur != simtime.Ticks(i*7+1) {
			t.Fatalf("span at %d: dur %d, want %d", s, ps.Dur, i*7+1)
		}
		if ps.Args["i"] != int64(i) {
			t.Fatalf("span at %d: arg i = %d, want %d", s, ps.Args["i"], i)
		}
	}
	if d.Meta["tickHz"] != "5.12e+08" && d.Meta["tickHz"] != "512000000" {
		t.Fatalf("tickHz lost: %q", d.Meta["tickHz"])
	}
}

// TestCursorStampsAtSetPosition pins the clockless-layer protocol: the
// owner Sets the position, the layer Events at it.
func TestCursorStampsAtSetPosition(t *testing.T) {
	col := NewCollector()
	tr := col.Tracer("n")
	cur := tr.Cursor(TrackMain)
	if !cur.Enabled() {
		t.Fatal("live cursor must report Enabled")
	}
	cur.Set(250)
	cur.Event(LPhys, "hugepool.shrink", I64("pages", 4))
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParsePerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].At != 250 || d.Events[0].Name != "hugepool.shrink" {
		t.Fatalf("cursor event mis-stamped: %+v", d.Events)
	}
}
