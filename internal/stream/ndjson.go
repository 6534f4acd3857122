package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/job"
)

// MaxTaskRecordBytes caps one encoded task record, its line ending
// excluded. A record is about a hundred bytes; the cap bounds what one
// line of an ingestion request can make the reader hold.
const MaxTaskRecordBytes = 64 << 10

// TaskRecord is the NDJSON wire form of one live-ingested task: the
// line format of dcserve's POST /v1/runs/{id}/tasks body and of dcscen
// -emit-ndjson output. A stream is task records in nondecreasing submit
// order followed by an explicit end-of-stream record ({"end":true});
// producers that stop without the end record leave the run waiting
// (its virtual clock cannot prove no earlier task is coming).
//
// Workload routes the record to one live provider lane; it may be empty
// when the run has exactly one. An end record with an empty workload
// ends every lane.
type TaskRecord struct {
	End      bool   `json:"end,omitempty"`
	ID       int    `json:"id,omitempty"`
	Name     string `json:"name,omitempty"`
	Submit   int64  `json:"submit,omitempty"`
	Runtime  int64  `json:"runtime,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Workload string `json:"workload,omitempty"`
}

// Job lowers the record to the simulator's job form. Live lanes are
// HTC by construction (scenario validation rejects live MTC sources),
// so the class is fixed here.
func (r *TaskRecord) Job() job.Job {
	return job.Job{
		ID:      r.ID,
		Name:    r.Name,
		Class:   job.HTC,
		Submit:  r.Submit,
		Runtime: r.Runtime,
		Nodes:   r.Nodes,
	}
}

// WriteNDJSON encodes jobs as task records — one JSON object per line,
// each tagged with the given workload lane — followed by the
// end-of-stream record. The output is exactly what POST
// /v1/runs/{id}/tasks ingests, and what TaskReader reads back; a record
// longer than MaxTaskRecordBytes is an error.
func WriteNDJSON(w io.Writer, workload string, jobs []job.Job) error {
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	write := func(rec TaskRecord, what string) error {
		line.Reset()
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("stream: encode %s: %w", what, err)
		}
		if n := line.Len() - 1; n > MaxTaskRecordBytes {
			return fmt.Errorf("stream: encode %s: record is %d bytes, over the %d-byte cap", what, n, MaxTaskRecordBytes)
		}
		_, err := w.Write(line.Bytes())
		return err
	}
	for i := range jobs {
		j := &jobs[i]
		rec := TaskRecord{
			ID: j.ID, Name: j.Name,
			Submit: j.Submit, Runtime: j.Runtime, Nodes: j.Nodes,
			Workload: workload,
		}
		if err := write(rec, fmt.Sprintf("task %d", j.ID)); err != nil {
			return err
		}
	}
	return write(TaskRecord{End: true, Workload: workload}, "end record")
}

// TaskReader decodes an NDJSON task-record stream: one JSON object per
// line, blank lines skipped, unknown fields rejected, and no line longer
// than MaxTaskRecordBytes. Records are numbered from 1, blank lines not
// counted, and every error names its record. An error ends the stream:
// the reader must not be used after one.
type TaskReader struct {
	r *bufio.Reader
	n int
}

// NewTaskReader reads task records from r.
func NewTaskReader(r io.Reader) *TaskReader {
	return &TaskReader{r: bufio.NewReaderSize(r, MaxTaskRecordBytes+2)}
}

// Record reports the number of the record Next last returned or failed
// on.
func (tr *TaskReader) Record() int { return tr.n }

// Next decodes the next record. It returns io.EOF after the last one.
func (tr *TaskReader) Next() (TaskRecord, error) {
	for {
		line, err := tr.r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			tr.n++
			return TaskRecord{}, fmt.Errorf("record %d: longer than %d bytes", tr.n, MaxTaskRecordBytes)
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return TaskRecord{}, fmt.Errorf("record %d: %w", tr.n+1, err)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if err != nil {
				return TaskRecord{}, io.EOF
			}
			continue
		}
		tr.n++
		if len(line) > MaxTaskRecordBytes {
			return TaskRecord{}, fmt.Errorf("record %d: longer than %d bytes", tr.n, MaxTaskRecordBytes)
		}
		var rec TaskRecord
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return TaskRecord{}, fmt.Errorf("record %d: %w", tr.n, err)
		}
		if dec.InputOffset() != int64(len(line)) {
			return TaskRecord{}, fmt.Errorf("record %d: trailing data after the JSON object", tr.n)
		}
		return rec, nil
	}
}
