package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanRecordAndString(t *testing.T) {
	s := &Span{Name: "window", Job: 3, Device: "csd-000"}
	s.Sim[StageTransfer] = 40 * time.Microsecond
	s.Sim[StageCompute] = 200 * time.Microsecond
	s.Add(StageQueue, 2*time.Microsecond)
	s.Add(StageQueue, 1*time.Microsecond) // accumulates
	s.Add(StageVerdict, 100*time.Nanosecond)
	s.Add(NumStages, time.Hour) // out of range: ignored
	st := s.Begin(StageCompute)
	time.Sleep(time.Millisecond)
	st.End()
	if got := s.Sim.Total(); got != 240*time.Microsecond {
		t.Fatalf("sim total = %v", got)
	}
	if s.Wall[StageQueue] != 3*time.Microsecond || s.Wall[StageCompute] < time.Millisecond {
		t.Fatalf("wall = %v", s.Wall)
	}
	if s.Wall[StageTransfer] != 0 || s.Sim[StageQueue] != 0 {
		t.Fatal("a stage leaked across clocks")
	}
	out := s.String()
	for _, want := range []string{"window#3@csd-000:", "sim transfer=40µs compute=200µs (240µs)", "; wall queue=3µs", "verdict=100ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q: %s", want, out)
		}
	}

	// A nil span records nothing and costs nothing.
	var nilSpan *Span
	nilSpan.Add(StageQueue, time.Second)
	nilSpan.Begin(StageCompute).End()
}

func TestStagesJSONRoundTrip(t *testing.T) {
	in := Stages{StageQueue: 1500, StageCompute: 215000}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"queue":1500,"compute":215000}` {
		t.Fatalf("marshal = %s", data)
	}
	var out Stages
	if err := json.Unmarshal(data, &out); err != nil || out != in {
		t.Fatalf("round trip = %v, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`{"warp":1}`), &out); err == nil {
		t.Fatal("unknown stage name accepted")
	}
	if data, _ := json.Marshal(Stages{}); string(data) != "{}" {
		t.Fatalf("empty stages = %s", data)
	}
}

func TestStageStringCoversAllStages(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("stage %d name %q invalid or duplicate", s, name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage should be unknown")
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context carried a span")
	}
	s := &Span{Name: "x"}
	ctx := WithSpan(context.Background(), s)
	if got := SpanFrom(ctx); got != s {
		t.Fatalf("SpanFrom = %p, want %p", got, s)
	}
}

func TestSpanLogRing(t *testing.T) {
	l := NewSpanLog(3)
	for i := 0; i < 5; i++ {
		l.Add(Span{Name: string(rune('a' + i))})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got))
	}
	// Oldest-first: c, d, e survive after a and b were evicted.
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Name != want {
			t.Errorf("span %d = %q, want %q", i, got[i].Name, want)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
}

func TestSpanLogNilSafe(t *testing.T) {
	var l *SpanLog
	l.Add(Span{Name: "x"}) // must not panic
	if l.Snapshot() != nil || l.Total() != 0 {
		t.Fatal("nil span log not inert")
	}
}
