package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// defaultSeed is the --seed whose reports must match digests. It maps
// to the built-in specs' own seed 42, so these are the reports dcscen
// prints for the unmodified built-ins.
const defaultSeed = 0

// digests holds the SHA-256 of each workload's report JSON at the
// default seed, at full and at tiny size. For served-stream it is the
// report of the first request.
var digests = map[string]string{
	"million-task":       "c95e41b8f86cb246a53146deaf1b7f25ab0097525ce9ca24bd90077fc7d1c06e",
	"scale-100":          "30bc8c491595ff79b8e1224c2cc0db496ec3c9254fe4397d94fb3023ba5ec33e",
	"served-stream":      "cb6ae076899d0d48c80ee0a29f7861a3317a1a8f397ef7bccf6b8a3b21e70c0d",
	"million-task/tiny":  "9a922f3cab5162169c84f887ce2d36d33cbb520e6cdb3100aed2583f3926b663",
	"scale-100/tiny":     "190bdafa3ff3cfe40cfc730a444244afba7ae2d98027cc12364f54628dedb229",
	"served-stream/tiny": "fef768c11fd11f5b6776489fe98a6da5c02a33982b6bcd2fd76c9475830d6fe5",
}

func digestKey(workload string, tiny bool) string {
	if tiny {
		return workload + "/tiny"
	}
	return workload
}

func digest(reportJSON []byte) string {
	sum := sha256.Sum256(reportJSON)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares a default-seed report with its recorded digest.
func checkDigest(key string, reportJSON []byte) error {
	want, ok := digests[key]
	if !ok {
		return fmt.Errorf("no digest recorded for %s", key)
	}
	if got := digest(reportJSON); got != want {
		return fmt.Errorf("%s: report digest %s, recorded %s", key, got, want)
	}
	return nil
}

// checkReport verifies the invariants every report must hold for any
// seed: each provider completes no more than it submitted, every base
// run has the spec's providers and simulates some task, and each run's
// totals are the sums over its providers.
func checkReport(rep *scenario.Report) error {
	if len(rep.Base) == 0 || len(rep.Base) != len(rep.Systems) {
		return fmt.Errorf("report has %d base runs for %d systems", len(rep.Base), len(rep.Systems))
	}
	for _, system := range rep.Systems {
		res, ok := rep.Base[system]
		if !ok {
			return fmt.Errorf("report lacks the %s run", system)
		}
		if len(res.Providers) != len(rep.Providers) {
			return fmt.Errorf("%s: %d provider rows for %d providers", system, len(res.Providers), len(rep.Providers))
		}
		hours, adjusted, submitted := 0.0, 0, 0
		for _, p := range res.Providers {
			if p.Completed < 0 || p.Completed > p.Submitted {
				return fmt.Errorf("%s/%s: completed %d of %d submitted", system, p.Name, p.Completed, p.Submitted)
			}
			hours += p.NodeHours
			adjusted += p.NodesAdjusted
			submitted += p.Submitted
		}
		if submitted == 0 {
			return fmt.Errorf("%s: no task submitted", system)
		}
		if hours != res.TotalNodeHours {
			return fmt.Errorf("%s: total node hours %v, providers sum to %v", system, res.TotalNodeHours, hours)
		}
		if adjusted != res.TotalNodesAdjusted {
			return fmt.Errorf("%s: total nodes adjusted %d, providers sum to %d", system, res.TotalNodesAdjusted, adjusted)
		}
	}
	return nil
}

// checkReportJSON decodes a report as a client receives it and checks
// it.
func checkReportJSON(reportJSON []byte) error {
	var rep scenario.Report
	if err := json.Unmarshal(reportJSON, &rep); err != nil {
		return fmt.Errorf("decode report: %w", err)
	}
	return checkReport(&rep)
}

// sameOutput compares a served report (JSON as served, any layout, and
// rendered text) with a local run's.
func sameOutput(servedJSON []byte, servedText string, local pipelineOut) error {
	var compact bytes.Buffer
	if err := json.Compact(&compact, servedJSON); err != nil {
		return fmt.Errorf("compact served report: %w", err)
	}
	if !bytes.Equal(compact.Bytes(), local.json) {
		return fmt.Errorf("served report JSON differs from a local run of the same spec")
	}
	if servedText != local.text {
		return fmt.Errorf("served report text differs from a local run of the same spec")
	}
	return nil
}

// tasksSimulated counts the tasks submitted to every base run.
func tasksSimulated(rep *scenario.Report) int {
	n := 0
	for _, res := range rep.Base {
		for _, p := range res.Providers {
			n += p.Submitted
		}
	}
	return n
}
