package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/events"
)

// windowGolden pins streaming-baseline's whole window event sequence:
// every window_report and window_summary in emission order, one wire
// JSON object per line.
const windowGolden = "testdata/streaming_baseline_windows.golden"

// windowEvents runs streaming-baseline on one worker, so cells run in
// order and the event sequence is deterministic, and returns its window
// events in wire form.
func windowEvents(t *testing.T, partitions int) []byte {
	t.Helper()
	spec, err := Builtin("streaming-baseline")
	if err != nil {
		t.Fatal(err)
	}
	spec.Partitions = partitions
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sink := events.Sink(func(ev events.Event) {
		switch ev.(type) {
		case events.WindowReport, events.WindowSummary:
			if err := enc.Encode(events.Encode(ev)); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := RunContext(context.Background(), spec, 1, sink); err != nil {
		t.Fatalf("P=%d: %v", partitions, err)
	}
	return buf.Bytes()
}

// TestStreamingBaselineWindowGolden pins the content of every window
// report and summary, not just their count and final totals: a snapshot
// taken after a boundary's records, or a partition barrier joining rows
// out of order, changes these bytes.
func TestStreamingBaselineWindowGolden(t *testing.T) {
	want, err := os.ReadFile(windowGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := bytes.Split(want, []byte("\n"))
	for _, p := range []int{1, 2} {
		got := windowEvents(t, p)
		if bytes.Equal(got, want) {
			continue
		}
		gotLines := bytes.Split(got, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("P=%d window events drifted from %s at line %d:\n got: %s\nwant: %s", p, windowGolden, i+1, g, w)
				break
			}
		}
	}
}
