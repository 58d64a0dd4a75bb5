package trace

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestRecordAssignsSequence(t *testing.T) {
	tr := New()
	a := tr.Record(Event{Kind: "a"})
	b := tr.Record(Event{Kind: "b"})
	if a.Seq != 0 || b.Seq != 1 {
		t.Errorf("sequence numbers = %d, %d; want 0, 1", a.Seq, b.Seq)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tr.Record(Event{Kind: "x"})
	tr.Recordf(obs.LevelNAVM, "y", 0, 1, 2, "detail %d", 3)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil Trace should be a no-op sink")
	}
}

func TestCapDropsButCounts(t *testing.T) {
	tr := NewCapped(2)
	for i := 0; i < 5; i++ {
		tr.Record(Event{Kind: "e"})
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped())
	}
	// Sequence numbers keep advancing past the cap.
	e := tr.Record(Event{Kind: "e"})
	if e.Seq != 5 {
		t.Errorf("Seq = %d, want 5", e.Seq)
	}
}

func TestRecordfDetail(t *testing.T) {
	tr := New()
	tr.Recordf(obs.LevelSPVM, "send", 1, 2, 8, "msg type %s", "initiate")
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("Len = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Level != obs.LevelSPVM || e.Kind != "send" || e.Src != 1 || e.Dst != 2 || e.Words != 8 {
		t.Errorf("unexpected event %v", e)
	}
	if e.Detail != "msg type initiate" {
		t.Errorf("Detail = %q", e.Detail)
	}
}

func TestEventsIsCopy(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: "k"})
	evs := tr.Events()
	evs[0].Kind = "mutated"
	if tr.Events()[0].Kind != "k" {
		t.Error("Events() exposed internal storage")
	}
}

func TestFilterAndCountByKind(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: "send"})
	tr.Record(Event{Kind: "send"})
	tr.Record(Event{Kind: "recv"})
	sends := tr.Filter(func(e Event) bool { return e.Kind == "send" })
	if len(sends) != 2 {
		t.Errorf("Filter returned %d events, want 2", len(sends))
	}
	counts := tr.CountByKind()
	if counts["send"] != 2 || counts["recv"] != 1 {
		t.Errorf("CountByKind = %v", counts)
	}
}

func TestCommunicationMatrix(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: "send", Src: 0, Dst: 2})
	tr.Record(Event{Kind: "send", Src: 0, Dst: 2})
	tr.Record(Event{Kind: "send", Src: 2, Dst: 0})
	tr.Record(Event{Kind: "other", Src: 5, Dst: 6})
	ids, m := tr.CommunicationMatrix("send")
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("ids = %v, want [0 2]", ids)
	}
	if m[0][1] != 2 {
		t.Errorf("m[0][1] = %d, want 2", m[0][1])
	}
	if m[1][0] != 1 {
		t.Errorf("m[1][0] = %d, want 1", m[1][0])
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Errorf("diagonal should be zero: %v", m)
	}
}

func TestConcurrentRecordKeepsAllEvents(t *testing.T) {
	tr := New()
	const n = 32
	const per = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tr.Record(Event{Kind: "e"})
			}
		}()
	}
	wg.Wait()
	if tr.Len() != n*per {
		t.Errorf("Len = %d, want %d", tr.Len(), n*per)
	}
	// All sequence numbers must be distinct.
	seen := make(map[int64]bool, n*per)
	for _, e := range tr.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence number %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestSummaryRendersCountsAndDrops(t *testing.T) {
	tr := NewCapped(1)
	tr.Record(Event{Kind: "send"})
	tr.Record(Event{Kind: "send"})
	s := tr.Summary()
	if !strings.Contains(s, "send") {
		t.Errorf("Summary missing kind:\n%s", s)
	}
	if !strings.Contains(s, "dropped") {
		t.Errorf("Summary missing drop note:\n%s", s)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Clock: 10, Level: obs.LevelARCH, Kind: "send", Src: 1, Dst: 2, Words: 4, Detail: "d"}
	s := e.String()
	for _, want := range []string{"#3", "t=10", "ARCH", "send", "1->2", "w=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
}
