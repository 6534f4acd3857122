package stream

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/job"
)

// readAll drains a task-record stream, returning the records read before
// the first error (nil at a clean end).
func readAll(data []byte) ([]TaskRecord, error) {
	tr := NewTaskReader(bytes.NewReader(data))
	var recs []TaskRecord
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// FuzzTaskRecords feeds arbitrary bytes to the ingestion reader. It must
// never panic, every error must name its record, and the task records it
// accepts must round-trip: WriteNDJSON either rejects them or writes a
// stream that reads back as the same records plus the end record.
func FuzzTaskRecords(f *testing.F) {
	f.Add([]byte(`{"id":1,"submit":0,"runtime":60,"nodes":1}` + "\n" + `{"end":true}` + "\n"))
	f.Add([]byte(`{"id":2,"name":"a<b","submit":5,"runtime":1,"nodes":3,"workload":"w"}`))
	f.Add([]byte("\n\n  \r\n{\"id\":3}\r\n{\"bogus\":1}\n"))
	f.Add([]byte(`{"id":1} {"id":2}`))
	f.Add([]byte(`{"name":"` + strings.Repeat("<", 20000) + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readAll(data)
		if err != nil && !strings.HasPrefix(err.Error(), "record ") {
			t.Fatalf("error %q does not name its record", err)
		}
		var jobs []job.Job
		for i := range recs {
			if !recs[i].End {
				jobs = append(jobs, recs[i].Job())
			}
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, "lane", jobs); err != nil {
			return // a record over the cap once re-encoded
		}
		back, err := readAll(buf.Bytes())
		if err != nil {
			t.Fatalf("WriteNDJSON output does not read back: %v", err)
		}
		if len(back) != len(jobs)+1 || !back[len(jobs)].End {
			t.Fatalf("read back %d records, want %d tasks and the end record", len(back), len(jobs))
		}
		for i := range jobs {
			if got := back[i].Job(); !reflect.DeepEqual(got, jobs[i]) || back[i].Workload != "lane" {
				t.Fatalf("record %d round-tripped to %+v, want %+v on lane", i+1, back[i], jobs[i])
			}
		}
	})
}

// TestTaskReaderCap pins the per-record size cap at its boundary: a
// record of exactly MaxTaskRecordBytes reads, one byte more fails naming
// the record, with or without a line ending.
func TestTaskReaderCap(t *testing.T) {
	record := func(size int) string {
		const head, tail = `{"id":1,"name":"`, `","submit":0,"runtime":1,"nodes":1}`
		return head + strings.Repeat("x", size-len(head)-len(tail)) + tail
	}
	for _, end := range []string{"", "\n", "\r\n"} {
		ok := record(MaxTaskRecordBytes)
		if recs, err := readAll([]byte(ok + "\n" + ok + end)); err != nil || len(recs) != 2 {
			t.Errorf("two records at the cap (end %q): %d read, err %v", end, len(recs), err)
		}
		over := record(MaxTaskRecordBytes + 1)
		recs, err := readAll([]byte(ok + "\n" + over + end))
		if err == nil || !strings.HasPrefix(err.Error(), "record 2: longer than") || len(recs) != 1 {
			t.Errorf("record over the cap (end %q): %d read, err %v", end, len(recs), err)
		}
	}
	if err := WriteNDJSON(io.Discard, "", []job.Job{{ID: 1, Name: strings.Repeat("<", MaxTaskRecordBytes/6+1)}}); err == nil {
		t.Error("WriteNDJSON wrote a record over the cap")
	}
}
