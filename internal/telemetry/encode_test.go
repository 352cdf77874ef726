package telemetry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// checkEncoding requires appendEvent to reproduce json.Marshal byte for
// byte, or to fail where Marshal fails.
func checkEncoding(t *testing.T, ev Event) {
	t.Helper()
	want, werr := json.Marshal(ev)
	got, gerr := appendEvent([]byte("prefix"), &ev)
	if werr != nil {
		if gerr == nil {
			t.Fatalf("json.Marshal fails (%v) but appendEvent encoded %q", werr, got)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("appendEvent failed (%v) where json.Marshal encoded %s", gerr, want)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("appendEvent mismatch:\n got %s\nwant %s", got[len("prefix"):], want)
	}
}

func TestAppendEventMatchesMarshal(t *testing.T) {
	dur := 2.5e6
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	cyclic := map[string]any{}
	cyclic["self"] = cyclic
	deep := map[string]any{"leaf": 1.5}
	for i := 0; i < 2*maxInlineDepth; i++ {
		deep = map[string]any{"k": deep}
	}
	floats := []float64{0, negZero, 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e-10, 1.5e-300,
		5e-324, 1e20, 1e21, -1e21, 123456789.125, 1.5e300, math.MaxFloat64, 1e6 + 0.25}
	strs := []string{"", "plain", `quote"back\slash`, "<script>&amp;</script>", "line\u2028para\u2029",
		"ctl\x00\x01\b\f\n\r\t\x1f\x7f", "bad\xffutf8\xc3", "emoji \U0001F680 \u00e9", "\xe2\x80"}

	var cases []Event
	for _, f := range floats {
		d := f
		cases = append(cases,
			Event{Name: "f", Ph: "X", Ts: f, Dur: &d, Args: map[string]any{"v": f, "neg": -f}})
	}
	for _, s := range strs {
		cases = append(cases, Event{Name: s, Cat: s, Ph: s, ID: s, Scope: s, Args: map[string]any{s: s}})
	}
	cases = append(cases,
		Event{Name: "minimal", Ph: "M"},
		Event{Name: "empty-args", Ph: "i", Args: map[string]any{}},
		Event{Name: "all", Cat: "collective", Ph: "b", Ts: 1.5, Dur: &dur, Pid: -3, Tid: math.MaxInt64,
			ID: "0x-7f", Scope: "t", Args: map[string]any{
				"scheme": "ina-hetero", "group": 8, "bytes": int64(math.MinInt64), "stalled": true,
				"reqs": []int{3, -1, 0}, "none": []int(nil), "emptyreqs": []int{}, "nil": nil,
				"costs": map[string]any{"ring": 0.25, "ina": "+Inf", "z": map[string]any{}, "n": map[string]any(nil)},
				"f32":   float32(0.1), "u8": uint8(7), "strs": []string{"a", "<b>"},
				"fm": map[string]float64{"b": 1, "a": 2}, "ptr": &dur, "deep": deep,
			}},
		// Everything json.Marshal rejects.
		Event{Name: "nan-ts", Ph: "i", Ts: nan},
		Event{Name: "inf-dur", Ph: "X", Dur: &inf},
		Event{Name: "nan-arg", Ph: "i", Args: map[string]any{"v": nan}},
		Event{Name: "nested-inf", Ph: "i", Args: map[string]any{"m": map[string]any{"v": math.Inf(-1)}}},
		Event{Name: "fallback-nan", Ph: "i", Args: map[string]any{"v": []float64{1, nan}}},
		Event{Name: "chan", Ph: "i", Args: map[string]any{"c": make(chan int)}},
		Event{Name: "cycle", Ph: "i", Args: map[string]any{"c": cyclic}},
	)
	for _, ev := range cases {
		checkEncoding(t, ev)
	}
}

// TestExportMatchesEncodingJSONDocument: Export writes the document
// encoding/json writes for the same events, empty or not.
func TestExportMatchesEncodingJSONDocument(t *testing.T) {
	var clock float64
	driven := NewTracer(func() float64 { return clock })
	driveTracer(driven, &clock)
	for _, tr := range []*Tracer{NewTracer(func() float64 { return 0 }), driven} {
		doc := struct {
			DisplayTimeUnit string  `json:"displayTimeUnit"`
			TraceEvents     []Event `json:"traceEvents"`
		}{"ms", tr.Events()}
		if doc.TraceEvents == nil {
			doc.TraceEvents = []Event{}
		}
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(doc); err != nil {
			t.Fatal(err)
		}
		if err := tr.Export(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("Export differs from encoding/json:\n got %s\nwant %s", got.Bytes(), want.Bytes())
		}
	}
}

func TestAsyncIDFormat(t *testing.T) {
	for _, id := range []int64{0, 7, 255, -5, math.MaxInt64, math.MinInt64} {
		if got, want := asyncID(id), fmt.Sprintf("0x%x", id); got != want {
			t.Errorf("asyncID(%d) = %q, want %q", id, got, want)
		}
	}
}

// fuzzArgs decodes a byte program into an arg map exercising every value
// shape appendValue encodes inline plus a few it hands to json.Marshal.
func fuzzArgs(prog []byte, key string) map[string]any {
	if len(prog) == 0 {
		return nil
	}
	m := map[string]any{}
	cur := m
	for i := 0; len(prog) > 0 && i < 64; i++ {
		op := prog[0]
		prog = prog[1:]
		k := key + string(rune('a'+i%26))
		var raw uint64
		if len(prog) >= 8 {
			raw = binary.LittleEndian.Uint64(prog)
		}
		switch op % 12 {
		case 0:
			cur[k] = math.Float64frombits(raw)
		case 1:
			cur[k] = int(int64(raw))
		case 2:
			cur[k] = int64(raw)
		case 3:
			cur[k] = raw&1 == 1
		case 4:
			n := int(raw % 9)
			if n > len(prog) {
				n = len(prog)
			}
			cur[k] = string(prog[:n])
		case 5:
			var xs []int
			for j := 0; j < int(raw%5); j++ {
				xs = append(xs, int(raw>>(8*j))-128)
			}
			cur[k] = xs
		case 6:
			sub := map[string]any{}
			cur[k] = sub
			cur = sub
		case 7:
			cur[k] = nil
		case 8:
			cur[k] = float32(math.Float64frombits(raw))
		case 9:
			cur[k] = []string{key, k}
		case 10:
			cur[k] = map[string]any(nil)
		case 11:
			cur[k] = []int{}
		}
		if len(prog) >= 8 && op%12 != 4 {
			prog = prog[8:]
		}
	}
	return m
}

func FuzzAppendEvent(f *testing.F) {
	f.Add("allreduce", "collective", "b", "0x1f", "", 1.5e6, 0.0, false, 1, 0, "scheme", []byte{4, 3, 'r', 'i', 'n', 'g', 5, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add("request", "request", "X", "", "", 4e6, 2.5e3, true, 2, 17, "id", []byte{1, 42, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add("<&>", "\u2028", "i", "\xff", "t", 1e-7, 1e21, true, -1, -1, "k\x00", []byte{6, 0, 0xff, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Add("nan", "", "C", "", "", math.NaN(), math.Inf(1), true, 0, 0, "", []byte{0, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, name, cat, ph, id, scope string, ts, dur float64, hasDur bool,
		pid, tid int, key string, prog []byte) {
		ev := Event{Name: name, Cat: cat, Ph: ph, Ts: ts, Pid: pid, Tid: tid, ID: id, Scope: scope,
			Args: fuzzArgs(prog, key)}
		if hasDur {
			ev.Dur = &dur
		}
		checkEncoding(t, ev)
	})
}

// emitShapes records one serving iteration's worth of the event shapes the
// instrumentation emits: a policy-select instant with its cost table, an
// all-reduce async pair tagged with the batch, a pipeline transfer, a fault
// instant, a perf counter sample, and a finished request's span family.
func emitShapes(tr *Tracer, clock *float64, id int64) {
	*clock += 0.035
	reqs := []int{int(id), int(id) + 1, int(id) + 2, int(id) + 3}
	tr.Instant(ControlTID, "sched", "policy-select", map[string]any{
		"group": "decode/0/0", "policy": "ina-hetero@sw0", "scheme": "ina-hetero",
		"reason": "table", "bytes": int64(8 << 20), "stalled": false, "reqs": reqs,
		"costs": map[string]any{"ring": 0.0123, "ina-sync@sw0": Float(math.Inf(1)), "ina-hetero@sw0": 0.0042},
	})
	tr.AsyncBegin("collective", "allreduce", id, map[string]any{
		"scheme": "ina-hetero", "group": 8, "bytes": int64(8 << 20), "steps": 40, "reqs": reqs, "switch": "sw0"})
	*clock += 0.004
	tr.AsyncEnd("collective", "allreduce", id)
	tr.AsyncBegin("pipeline", "pipeline_stage", id, map[string]any{
		"stage": 1, "instance": 0, "bytes": int64(1 << 20), "reqs": reqs})
	tr.AsyncEnd("pipeline", "pipeline_stage", id)
	tr.Instant(ControlTID, "fault", "link-degrade", map[string]any{"duration": 2.0, "edge": 3, "factor": 0.25})
	tr.Counter(*clock, ControlTID, "events/s", 213456.5)
	r := int(id)
	start := *clock - 1.25
	tr.Complete(r+1, "request", "request", start, *clock, map[string]any{
		"id": r, "input": 512, "output": 128, "trace_id": "p1-r17"})
	reqArg := map[string]any{"req": r}
	tr.Complete(r+1, "request", "queue", start, start+0.01, reqArg)
	tr.Complete(r+1, "request", "prefill", start+0.01, start+0.1, reqArg)
	tr.Complete(r+1, "request", "kv-transfer", start+0.1, start+0.12, reqArg)
	tr.Complete(r+1, "request", "decode", start+0.12, *clock, map[string]any{"req": r, "tokens": 128})
}

// marshalStream is the encoding/json reference backend: one json.Marshal
// per event onto a buffered writer.
type marshalStream struct {
	w *bufio.Writer
	n int
}

func (s *marshalStream) write(ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	if s.n > 0 {
		s.w.WriteByte(',')
	}
	s.w.Write(b)
	s.n++
}

func BenchmarkTraceStreamEmit(b *testing.B) {
	const perOp = 13 // events emitShapes records
	b.Run("impl=append", func(b *testing.B) {
		var clock float64
		tr, err := NewStreamTracer(func() float64 { return clock }, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		tr.BeginProcess("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emitShapes(tr, &clock, int64(i))
		}
		b.StopTimer()
		if err := tr.CloseStream(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/event")
	})
	b.Run("impl=json", func(b *testing.B) {
		var clock float64
		tr := NewTracer(func() float64 { return clock })
		s := &marshalStream{w: bufio.NewWriterSize(io.Discard, 1<<16)}
		tr.Tap(s.write)
		tr.BeginProcess("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emitShapes(tr, &clock, int64(i))
			tr.events = tr.events[:0] // the tap is the backend; keep nothing
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/event")
	})
}
