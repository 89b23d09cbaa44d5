package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// tickHzStr is stamped into the trace header so consumers can convert
// microsecond timestamps back to ticks without guessing the time base.
const tickHzStr = "512000000"

// usPerTick converts ticks to Chrome trace microseconds. TickHz is
// 512 MHz and 512 = 2^9, so the division is exact in float64 and a
// consumer multiplying by 512 recovers the tick count bit-for-bit.
func usPerTick(t int64) float64 { return float64(t) / 512.0 }

// WritePerfetto renders everything recorded so far as one Chrome /
// Perfetto trace_event JSON document (load via ui.perfetto.dev or
// chrome://tracing).
//
// The byte stream is canonical: records are sorted under a total order
// over their full content before rendering, so the output is identical
// no matter in which real-time order concurrent goroutines appended
// them — the determinism gate diffs two same-seed trace files directly.
func (c *Collector) WritePerfetto(w io.Writer) error {
	if c == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","otherData":{"tickHz":`+tickHzStr+`},"traceEvents":[]}`+"\n")
		return err
	}
	procs := append([]procMeta(nil), c.procs...)
	spans := append([]span(nil), c.spans...)
	events := append([]event(nil), c.events...)
	flows := append([]flow(nil), c.flows...)
	metaS := append([][2]string(nil), c.metaS...)

	sort.SliceStable(spans, func(i, j int) bool { return spanLess(spans[i], spans[j]) })
	sort.SliceStable(events, func(i, j int) bool { return eventLess(events[i], events[j]) })
	sort.SliceStable(flows, func(i, j int) bool { return flowLess(flows[i], flows[j]) })

	// Threads are named from the fixed track table, restricted to the
	// (pid, tid) pairs that actually recorded something.
	type ptid struct{ pid, tid int32 }
	used := map[ptid]bool{}
	for _, s := range spans {
		used[ptid{s.pid, s.tid}] = true
	}
	for _, e := range events {
		used[ptid{e.pid, e.tid}] = true
	}
	for _, f := range flows {
		used[ptid{f.pid, f.tid}] = true
	}
	var threads []ptid
	for k := range used {
		threads = append(threads, k)
	}
	sort.Slice(threads, func(i, j int) bool {
		if threads[i].pid != threads[j].pid {
			return threads[i].pid < threads[j].pid
		}
		return threads[i].tid < threads[j].tid
	})

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","otherData":{"tickHz":%s`, tickHzStr)
	for _, kv := range metaS {
		fmt.Fprintf(bw, `,%s:%s`, jstr(kv[0]), jstr(kv[1]))
	}
	fmt.Fprintf(bw, "},\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for _, p := range procs {
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`, p.pid, jstr(p.name))
	}
	for _, t := range threads {
		name := trackNames[t.tid]
		if name == "" {
			name = fmt.Sprintf("track%d", t.tid)
		}
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, t.pid, t.tid, jstr(name))
		sep()
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, t.pid, t.tid, t.tid)
	}
	for _, s := range spans {
		sep()
		fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"cat":%s,"name":%s,"args":{`,
			s.pid, s.tid, jus(int64(s.start)), jus(int64(s.dur)), jstr(string(s.layer)), jstr(s.name))
		writeArgs(bw, s.args)
		bw.WriteString("}}")
	}
	for _, e := range events {
		sep()
		fmt.Fprintf(bw, `{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"cat":%s,"name":%s,"args":{`,
			e.pid, e.tid, jus(int64(e.at)), jstr(string(e.layer)), jstr(e.name))
		writeArgs(bw, e.args)
		bw.WriteString("}}")
	}
	for _, f := range flows {
		ph := "f"
		if f.begin {
			ph = "s"
		}
		sep()
		fmt.Fprintf(bw, `{"ph":%s,"bp":"e","pid":%d,"tid":%d,"ts":%s,"cat":"flow","name":"msg","id":%d}`,
			jstr(ph), f.pid, f.tid, jus(int64(f.at)), f.id)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeArgs renders a span/event argument list as JSON object members.
func writeArgs(w *bufio.Writer, args []Arg) {
	for i, a := range args {
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "%s:%d", jstr(a.Key), a.Val)
	}
}

// jstr renders a JSON string literal. encoding/json's string encoding
// is deterministic.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Strings cannot fail to marshal; keep the writer total anyway.
		return `"?"`
	}
	return string(b)
}

// jus renders a tick count as a microsecond JSON number with the
// shortest decimal representation that round-trips — deterministic, and
// exact because ticks/512 has a finite binary (hence decimal) expansion.
func jus(ticks int64) string {
	v := usPerTick(ticks)
	b, err := json.Marshal(v)
	if err != nil {
		return "0"
	}
	return string(b)
}

// argLess orders two argument lists (length, then pairwise key/value).
func argLess(a, b []Arg) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return a[i].Key < b[i].Key
		}
		if a[i].Val != b[i].Val {
			return a[i].Val < b[i].Val
		}
	}
	return false
}

func spanLess(a, b span) bool {
	switch {
	case a.pid != b.pid:
		return a.pid < b.pid
	case a.tid != b.tid:
		return a.tid < b.tid
	case a.start != b.start:
		return a.start < b.start
	case a.dur != b.dur:
		return a.dur > b.dur // enclosing spans first
	case a.layer != b.layer:
		return a.layer < b.layer
	case a.name != b.name:
		return a.name < b.name
	default:
		return argLess(a.args, b.args)
	}
}

func eventLess(a, b event) bool {
	switch {
	case a.pid != b.pid:
		return a.pid < b.pid
	case a.tid != b.tid:
		return a.tid < b.tid
	case a.at != b.at:
		return a.at < b.at
	case a.layer != b.layer:
		return a.layer < b.layer
	case a.name != b.name:
		return a.name < b.name
	default:
		return argLess(a.args, b.args)
	}
}

func flowLess(a, b flow) bool {
	switch {
	case a.id != b.id:
		return a.id < b.id
	case a.begin != b.begin:
		return a.begin // begin before end
	case a.pid != b.pid:
		return a.pid < b.pid
	case a.tid != b.tid:
		return a.tid < b.tid
	default:
		return a.at < b.at
	}
}
