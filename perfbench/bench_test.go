package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricPrinted runs every workload at tiny size, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that every output check
// passed.
func TestEveryMetricPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "0", "--seconds", "0.5", "--trace", trace, "--tiny"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Fatalf("correct %v, %d attempted, %d failed", got.Correct, got.Attempted, got.Failed)
				}
				want := map[string]string{}
				for _, m := range bf.EndToEnd {
					if trace == "0" {
						want[m.Name] = m.Unit
					}
				}
				for _, m := range bf.PerLayer {
					if trace == "1" {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					m, ok := got.Metrics[name]
					if !ok {
						t.Errorf("metric %s not printed", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range got.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s printed but not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestCorruptedReportFails feeds reports with one corrupted field to the
// output checks and expects each to be caught.
func TestCorruptedReportFails(t *testing.T) {
	spec, err := generateSpec("million-task", specSeed(defaultSeed), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipeline(context.Background(), spec, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(out.report); err != nil {
		t.Fatalf("intact report: %v", err)
	}
	if err := checkDigest(digestKey("million-task", true), out.json); err != nil {
		t.Fatalf("intact report: %v", err)
	}

	res := out.report.Base["DawningCloud"]
	res.Providers[0].Completed = res.Providers[0].Submitted + 1
	out.report.Base["DawningCloud"] = res
	if err := checkReport(out.report); err == nil {
		t.Error("checkReport accepted a provider completing more tasks than it submitted")
	}
	corrupt, err := json.Marshal(out.report)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(digestKey("million-task", true), corrupt); err == nil {
		t.Error("checkDigest accepted a corrupted report")
	}
	if err := sameOutput(corrupt, out.text, out); err == nil {
		t.Error("sameOutput accepted a served report that differs from the local run")
	}
}
