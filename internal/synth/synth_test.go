package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
)

func TestValidate(t *testing.T) {
	valid := NASAiPSC(1)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Model)
	}{
		{"zero days", func(m *Model) { m.Days = 0 }},
		{"zero nodes", func(m *Model) { m.MachineNodes = 0 }},
		{"util zero", func(m *Model) { m.TargetUtil = 0 }},
		{"util one", func(m *Model) { m.TargetUtil = 1 }},
		{"bad median", func(m *Model) { m.RuntimeMedian = 0 }},
		{"negative sigma", func(m *Model) { m.RuntimeSigma = -1 }},
		{"no sizes", func(m *Model) { m.SizeWeights = nil }},
		{"size too big", func(m *Model) { m.SizeWeights = []SizeWeight{{m.MachineNodes + 1, 1}} }},
		{"negative weight", func(m *Model) { m.SizeWeights = []SizeWeight{{1, -1}} }},
		{"zero total weight", func(m *Model) { m.SizeWeights = []SizeWeight{{1, 0}, {2, 0}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NASAiPSC(1)
			tt.mutate(m)
			if err := m.Validate(); err == nil {
				t.Error("invalid model accepted")
			}
		})
	}
}

func checkTrace(t *testing.T, m *Model, jobs []job.Job) {
	t.Helper()
	if err := job.ValidateAll(jobs); err != nil {
		t.Fatalf("invalid workload: %v", err)
	}
	span := m.Span()
	util := float64(job.TotalNodeSeconds(jobs)) / (float64(m.MachineNodes) * float64(span))
	if math.Abs(util-m.TargetUtil) > 0.02 {
		t.Errorf("utilization = %.4f, want %.4f +/- 0.02", util, m.TargetUtil)
	}
	if got := job.MaxNodes(jobs); got != m.MachineNodes {
		t.Errorf("max nodes = %d, want machine size %d", got, m.MachineNodes)
	}
	for i := range jobs {
		if jobs[i].Nodes > m.MachineNodes {
			t.Fatalf("job %d demands %d > machine %d", jobs[i].ID, jobs[i].Nodes, m.MachineNodes)
		}
		if jobs[i].Submit < 0 || jobs[i].Submit >= span {
			t.Fatalf("job %d submit %d outside [0,%d)", jobs[i].ID, jobs[i].Submit, span)
		}
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].Submit > jobs[i].Submit {
			t.Fatal("jobs not sorted by submit time")
		}
	}
}

func TestNASAGeneration(t *testing.T) {
	m := NASAiPSC(42)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkTrace(t, m, jobs)
	// The paper's window has ~2600 jobs; stay in the same order of
	// magnitude so queue dynamics are comparable.
	if len(jobs) < 1000 || len(jobs) > 10000 {
		t.Errorf("job count = %d, want O(2600)", len(jobs))
	}
}

func TestBLUEGeneration(t *testing.T) {
	m := SDSCBlue(42)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkTrace(t, m, jobs)
	if len(jobs) < 500 || len(jobs) > 10000 {
		t.Errorf("job count = %d, want O(2600)", len(jobs))
	}
}

func TestNASAJobsShorterThanBLUE(t *testing.T) {
	nasa, err := NASAiPSC(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	blue, err := SDSCBlue(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	meanRun := func(jobs []job.Job) float64 {
		var s float64
		for i := range jobs {
			s += float64(jobs[i].Runtime)
		}
		return s / float64(len(jobs))
	}
	if meanRun(nasa) >= meanRun(blue) {
		t.Errorf("NASA mean runtime %.0f >= BLUE %.0f; paper has NASA short, BLUE long",
			meanRun(nasa), meanRun(blue))
	}
}

func TestBLUESecondWeekBusier(t *testing.T) {
	jobs, err := SDSCBlue(42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	week := int64(7 * 24 * 3600)
	var w1, w2 int64
	for i := range jobs {
		if jobs[i].Submit < week {
			w1 += jobs[i].NodeSeconds()
		} else {
			w2 += jobs[i].NodeSeconds()
		}
	}
	if w2 < w1*5/4 {
		t.Errorf("week2 demand %d not >= 1.25x week1 %d; paper: quiet then busy", w2, w1)
	}
}

func TestNASAWeeksBalanced(t *testing.T) {
	jobs, err := NASAiPSC(42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	week := int64(7 * 24 * 3600)
	var w1, w2 int64
	for i := range jobs {
		if jobs[i].Submit < week {
			w1 += jobs[i].NodeSeconds()
		} else {
			w2 += jobs[i].NodeSeconds()
		}
	}
	ratio := float64(w2) / float64(w1)
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("NASA week2/week1 demand = %.2f, want near 1 (smooth trace)", ratio)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, err := NASAiPSC(99).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NASAiPSC(99).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Submit != b[i].Submit || a[i].Nodes != b[i].Nodes || a[i].Runtime != b[i].Runtime {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := NASAiPSC(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NASAiPSC(2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Submit != b[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestDailyCycleShapesArrivals(t *testing.T) {
	jobs, err := NASAiPSC(11).Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 24)
	for i := range jobs {
		counts[(jobs[i].Submit/3600)%24]++
	}
	night := counts[2] + counts[3] + counts[4]
	day := counts[10] + counts[11] + counts[12]
	if day <= night {
		t.Errorf("daytime arrivals %d not above night %d; daily cycle missing", day, night)
	}
}

func TestGenerateRejectsInvalidModel(t *testing.T) {
	m := NASAiPSC(1)
	m.Days = -1
	if _, err := m.Generate(); err == nil {
		t.Error("Generate accepted invalid model")
	}
}

func TestFlatCycleWorks(t *testing.T) {
	m := &Model{
		Name: "flat", Seed: 3, Days: 2, MachineNodes: 16, TargetUtil: 0.5,
		RuntimeMedian: 600, RuntimeSigma: 1,
		SizeWeights: []SizeWeight{{1, 1}, {4, 1}},
	}
	jobs, err := m.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkTrace(t, m, jobs)
}

// Property: generation never exceeds the machine size and always hits the
// utilization target within tolerance, across seeds.
func TestPropertyCalibrationAcrossSeeds(t *testing.T) {
	f := func(seed int64) bool {
		m := &Model{
			Name: "prop", Seed: seed, Days: 3, MachineNodes: 64, TargetUtil: 0.4,
			RuntimeMedian: 900, RuntimeSigma: 1.2,
			SizeWeights: []SizeWeight{{1, 1}, {8, 1}, {32, 0.5}},
		}
		jobs, err := m.Generate()
		if err != nil {
			return false
		}
		util := float64(job.TotalNodeSeconds(jobs)) / (float64(m.MachineNodes) * float64(m.Span()))
		if math.Abs(util-0.4) > 0.03 {
			return false
		}
		for i := range jobs {
			if jobs[i].Nodes > 64 || jobs[i].Runtime < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// traceDigest hashes every job's ID, Name, Class, Submit, Runtime and
// Nodes, in order.
func traceDigest(jobs []job.Job) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := range jobs {
		j := &jobs[i]
		put(int64(j.ID))
		put(int64(len(j.Name)))
		h.Write([]byte(j.Name))
		put(int64(j.Class))
		put(j.Submit)
		put(j.Runtime)
		put(int64(j.Nodes))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedBytesPinned pins the generator's output for each bundled
// model. Every simulation result downstream is a function of these jobs,
// so a change here changes every golden: the RNG draw order, the
// calibration arithmetic and the order of tied submit times all count.
func TestGeneratedBytesPinned(t *testing.T) {
	tests := []struct {
		name   string
		model  *Model
		jobs   int
		digest string
	}{
		{"million-task-42-14d", MillionTaskWindowed(42, 14), 1_059_360, "dfc423dc7bb68e478a7565c2e4a164db6844eb5d6abd174392bc7f7a5f32f69a"},
		{"nasa-ipsc-42", NASAiPSC(42), 4472, "d909c2ffec20a3813e93788c7f36129940d05f82f1b2577cfbc1481e1567872e"},
		{"sdsc-blue-43", SDSCBlue(43), 2257, "1fb89cedf402bc4e47229540b3cd75a3819eb584f784d59da829dc7005df7374"},
		{"sdsc-blue-7-4d", SDSCBlueWindowed(7, 4), 529, "358a25e774b4de54ba8d0f5d48cffa089854a0f1d6ac0885293b412945feec41"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if testing.Short() && tt.jobs > 100_000 {
				t.Skip("million-task generation skipped in -short mode")
			}
			jobs, err := tt.model.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != tt.jobs {
				t.Errorf("%d jobs, want %d", len(jobs), tt.jobs)
			}
			if got := traceDigest(jobs); got != tt.digest {
				t.Errorf("digest %s, want %s", got, tt.digest)
			}
		})
	}
}

// TestGenerateAllocsBounded is the allocation gate for workload
// synthesis: generating, sorting, numbering, naming and validating a
// trace costs a fixed number of allocations however many jobs it has.
func TestGenerateAllocsBounded(t *testing.T) {
	const limit = 64
	for _, days := range []int{1, 2} {
		m := MillionTaskWindowed(3, days)
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := m.Generate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= limit {
			t.Errorf("%d-day million-task: Generate made %.0f allocations, want < %d", days, allocs, limit)
		}
	}
}

func BenchmarkGenerateNASA(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NASAiPSC(42).Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateMillionTask(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MillionTask(0).Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMillionTaskGeneratesAMillionTasks pins the stress model's contract:
// at least 10⁶ valid tasks over the two-week window, calibrated near its
// utilization target, deterministic per seed. Generation costs a couple
// of seconds, so -short skips it.
func TestMillionTaskGeneratesAMillionTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task generation skipped in -short mode")
	}
	m := MillionTask(1)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 1_000_000 {
		t.Fatalf("generated %d jobs, want >= 1e6", len(jobs))
	}
	util := float64(job.TotalNodeSeconds(jobs)) / (float64(m.MachineNodes) * float64(m.Span()))
	if util < m.TargetUtil-0.02 || util > m.TargetUtil+0.02 {
		t.Errorf("realized utilization %.4f, want %.2f ± 0.02", util, m.TargetUtil)
	}
	again, err := MillionTask(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(jobs) {
		t.Fatalf("regeneration not deterministic: %d vs %d jobs", len(again), len(jobs))
	}
	for i := range jobs {
		a, b := &again[i], &jobs[i]
		if a.ID != b.ID || a.Name != b.Name || a.Class != b.Class || a.Submit != b.Submit ||
			a.Runtime != b.Runtime || a.Nodes != b.Nodes || len(a.Deps) != len(b.Deps) || a.Workflow != b.Workflow {
			t.Fatalf("regeneration not deterministic at job %d: %+v vs %+v", i, again[i], jobs[i])
		}
	}
}

// TestMillionTaskWindowedScales checks the short-window variant stays
// valid and proportional.
func TestMillionTaskWindowedScales(t *testing.T) {
	m := MillionTaskWindowed(3, 1)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 50_000 {
		t.Errorf("1-day window generated %d jobs, want >= 50k (≈1e6/14)", len(jobs))
	}
	if err := job.ValidateAll(jobs); err != nil {
		t.Fatal(err)
	}
}
