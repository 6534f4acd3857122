package job

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{HTC, "HTC"},
		{MTC, "MTC"},
		{Class(7), "Class(7)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		j       Job
		wantErr bool
	}{
		{"valid", Job{ID: 1, Nodes: 4, Runtime: 100}, false},
		{"zero nodes", Job{ID: 1, Nodes: 0, Runtime: 100}, true},
		{"negative nodes", Job{ID: 1, Nodes: -2, Runtime: 100}, true},
		{"negative runtime", Job{ID: 1, Nodes: 1, Runtime: -1}, true},
		{"negative submit", Job{ID: 1, Nodes: 1, Submit: -5}, true},
		{"self dependency", Job{ID: 1, Nodes: 1, Deps: []int{1}}, true},
		{"zero runtime ok", Job{ID: 1, Nodes: 1, Runtime: 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.j.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

// validateAllMap is the set-based ValidateAll that the sort-based one
// replaced; the two must return the same error for every input.
func validateAllMap(jobs []Job) error {
	seen := make(map[int]bool, len(jobs))
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			return err
		}
		if seen[jobs[i].ID] {
			return fmt.Errorf("duplicate job ID %d", jobs[i].ID)
		}
		seen[jobs[i].ID] = true
	}
	for i := range jobs {
		for _, d := range jobs[i].Deps {
			if !seen[d] {
				return fmt.Errorf("job %d: dependency %d not in workload", jobs[i].ID, d)
			}
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestValidateAll(t *testing.T) {
	tests := []struct {
		name string
		jobs []Job
		want string
	}{
		{"empty", nil, "<nil>"},
		{"good", []Job{
			{ID: 1, Nodes: 1, Runtime: 10},
			{ID: 2, Nodes: 2, Runtime: 20, Deps: []int{1}},
		}, "<nil>"},
		{"duplicate", []Job{{ID: 1, Nodes: 1}, {ID: 1, Nodes: 1}}, "duplicate job ID 1"},
		{"dangling", []Job{{ID: 1, Nodes: 1, Deps: []int{99}}}, "job 1: dependency 99 not in workload"},
		{"sparse IDs", []Job{
			{ID: 1 << 40, Nodes: 1, Deps: []int{1}},
			{ID: 1, Nodes: 1},
		}, "<nil>"},
		{"extreme IDs", []Job{
			{ID: math.MaxInt, Nodes: 1, Deps: []int{math.MinInt}},
			{ID: math.MinInt, Nodes: 1, Deps: []int{math.MaxInt}},
			{ID: 0, Nodes: 1},
		}, "<nil>"},
		{"negative IDs", []Job{
			{ID: -3, Nodes: 1},
			{ID: -7, Nodes: 1, Deps: []int{-3}},
			{ID: -3, Nodes: 1},
		}, "duplicate job ID -3"},
		{"duplicate before invalid", []Job{
			{ID: 5, Nodes: 1},
			{ID: 5, Nodes: 1},
			{ID: 6, Nodes: 0},
		}, "duplicate job ID 5"},
		{"invalid before duplicate", []Job{
			{ID: 5, Nodes: 1},
			{ID: 6, Nodes: 0},
			{ID: 5, Nodes: 1},
		}, "job 6: nodes 0 < 1"},
		{"invalid repeat", []Job{
			{ID: 5, Nodes: 1},
			{ID: 5, Nodes: 1, Runtime: -1},
		}, "job 5: negative runtime -1"},
		{"earliest of two duplicates", []Job{
			{ID: 2, Nodes: 1},
			{ID: 9, Nodes: 1},
			{ID: 9, Nodes: 1},
			{ID: 2, Nodes: 1},
		}, "duplicate job ID 9"},
		{"duplicate before dangling", []Job{
			{ID: 1, Nodes: 1, Deps: []int{42}},
			{ID: 1, Nodes: 1},
		}, "duplicate job ID 1"},
		{"first dangling in slice order", []Job{
			{ID: 3, Nodes: 1, Deps: []int{1, 8}},
			{ID: 1, Nodes: 1, Deps: []int{4}},
		}, "job 3: dependency 8 not in workload"},
		{"dangling between IDs", []Job{
			{ID: 10, Nodes: 1},
			{ID: 30, Nodes: 1, Deps: []int{10, 20}},
		}, "job 30: dependency 20 not in workload"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := errText(ValidateAll(tt.jobs)); got != tt.want {
				t.Errorf("ValidateAll = %s, want %s", got, tt.want)
			}
			if ref := errText(validateAllMap(tt.jobs)); ref != tt.want {
				t.Errorf("reference = %s, want %s", ref, tt.want)
			}
		})
	}
}

// Property: on small random workloads with colliding IDs, invalid jobs
// and dangling dependencies, ValidateAll reports exactly what the
// set-based reference reports.
func TestPropertyValidateAllMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(12)
		idRange := 1 + rng.Intn(2*n+1)
		jobs := make([]Job, n)
		for i := range jobs {
			j := Job{ID: rng.Intn(idRange) - idRange/3, Nodes: 1}
			if rng.Intn(20) == 0 {
				j.Nodes = 0
			}
			for d := rng.Intn(3); d > 0; d-- {
				j.Deps = append(j.Deps, rng.Intn(idRange+2)-idRange/3)
			}
			jobs[i] = j
		}
		if got, want := errText(ValidateAll(jobs)), errText(validateAllMap(jobs)); got != want {
			t.Fatalf("trial %d: ValidateAll(%+v) = %s, reference %s", trial, jobs, got, want)
		}
	}
}

func TestValidateAllAllocs(t *testing.T) {
	jobs := make([]Job, 10_000)
	for i := range jobs {
		jobs[i] = Job{ID: i + 1, Nodes: 1, Runtime: 10}
		if i > 0 {
			jobs[i].Deps = []int{i}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := ValidateAll(jobs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ValidateAll on %d dense jobs made %.0f allocations, want <= 2", len(jobs), allocs)
	}
}

func TestNodeSeconds(t *testing.T) {
	j := Job{Nodes: 8, Runtime: 3600}
	if got := j.NodeSeconds(); got != 28800 {
		t.Errorf("NodeSeconds() = %d, want 28800", got)
	}
}

func TestSortBySubmit(t *testing.T) {
	jobs := []Job{
		{ID: 3, Submit: 100, Nodes: 1},
		{ID: 1, Submit: 50, Nodes: 1},
		{ID: 2, Submit: 100, Nodes: 1},
	}
	SortBySubmit(jobs)
	wantIDs := []int{1, 2, 3}
	for i, want := range wantIDs {
		if jobs[i].ID != want {
			t.Errorf("jobs[%d].ID = %d, want %d", i, jobs[i].ID, want)
		}
	}
}

func TestSpan(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 100, Runtime: 50, Nodes: 1},
		{ID: 2, Submit: 20, Runtime: 10, Nodes: 1},
		{ID: 3, Submit: 80, Runtime: 500, Nodes: 1},
	}
	start, end := Span(jobs)
	if start != 20 {
		t.Errorf("start = %d, want 20", start)
	}
	if end != 580 {
		t.Errorf("end = %d, want 580", end)
	}
	if s, e := Span(nil); s != 0 || e != 0 {
		t.Errorf("Span(nil) = %d,%d, want 0,0", s, e)
	}
}

func TestTotalNodeSecondsAndMaxNodes(t *testing.T) {
	jobs := []Job{
		{ID: 1, Nodes: 2, Runtime: 10},
		{ID: 2, Nodes: 5, Runtime: 4},
	}
	if got := TotalNodeSeconds(jobs); got != 40 {
		t.Errorf("TotalNodeSeconds = %d, want 40", got)
	}
	if got := MaxNodes(jobs); got != 5 {
		t.Errorf("MaxNodes = %d, want 5", got)
	}
	if got := MaxNodes(nil); got != 0 {
		t.Errorf("MaxNodes(nil) = %d, want 0", got)
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	a := &Job{ID: 1, Nodes: 2}
	b := &Job{ID: 2, Nodes: 3}
	c := &Job{ID: 3, Nodes: 4}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.At(0) != a || q.At(1) != b || q.At(2) != c {
		t.Error("queue order does not match push order")
	}
	got := q.Remove(1)
	if got != b {
		t.Errorf("Remove(1) = job %d, want job 2", got.ID)
	}
	if q.Len() != 2 || q.At(0) != a || q.At(1) != c {
		t.Error("order broken after Remove")
	}
}

func TestQueueDemands(t *testing.T) {
	var q Queue
	q.Push(&Job{ID: 1, Nodes: 2})
	q.Push(&Job{ID: 2, Nodes: 7})
	q.Push(&Job{ID: 3, Nodes: 3})
	if got := q.AccumulatedDemand(); got != 12 {
		t.Errorf("AccumulatedDemand = %d, want 12", got)
	}
	if got := q.LargestDemand(); got != 7 {
		t.Errorf("LargestDemand = %d, want 7", got)
	}
}

func TestQueueEmptyDemands(t *testing.T) {
	var q Queue
	if q.AccumulatedDemand() != 0 || q.LargestDemand() != 0 {
		t.Error("empty queue demands should be 0")
	}
}

func TestQueueRemoveAll(t *testing.T) {
	var q Queue
	for i := 1; i <= 5; i++ {
		q.Push(&Job{ID: i, Nodes: 1})
	}
	q.RemoveAll([]int{0, 2, 4})
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if q.At(0).ID != 2 || q.At(1).ID != 4 {
		t.Errorf("remaining = %d,%d, want 2,4", q.At(0).ID, q.At(1).ID)
	}
	q.RemoveAll(nil)
	if q.Len() != 2 {
		t.Error("RemoveAll(nil) changed the queue")
	}
}

func TestQueueSnapshotIsCopy(t *testing.T) {
	var q Queue
	q.Push(&Job{ID: 1, Nodes: 1})
	snap := q.Snapshot()
	q.Push(&Job{ID: 2, Nodes: 1})
	if len(snap) != 1 {
		t.Error("snapshot mutated by later Push")
	}
}

// Property: accumulated demand equals the sum of individual demands for any
// sequence of pushes and removals from the front.
func TestPropertyQueueDemandConsistency(t *testing.T) {
	f := func(sizes []uint8) bool {
		var q Queue
		sum := 0
		for i, s := range sizes {
			n := int(s%32) + 1
			q.Push(&Job{ID: i, Nodes: n})
			sum += n
		}
		for q.Len() > 3 {
			sum -= q.At(0).Nodes
			q.Remove(0)
		}
		return q.AccumulatedDemand() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sortBySubmitSlice is the sort.Slice ordering that SortBySubmit's key
// sort replaced; the two must give the identical permutation, ties
// included.
func sortBySubmitSlice(jobs []Job) {
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Submit != jobs[k].Submit {
			return jobs[i].Submit < jobs[k].Submit
		}
		return jobs[i].ID < jobs[k].ID
	})
}

// Property: SortBySubmit yields non-decreasing submit times, preserves
// the multiset of IDs and orders ties exactly as sort.Slice does.
func TestPropertySortBySubmit(t *testing.T) {
	f := func(submits []uint16) bool {
		jobs := make([]Job, len(submits))
		idSet := make(map[int]bool, len(submits))
		for i, s := range submits {
			jobs[i] = Job{ID: i, Submit: int64(s), Nodes: 1}
			idSet[i] = true
		}
		SortBySubmit(jobs)
		for i := 1; i < len(jobs); i++ {
			if jobs[i-1].Submit > jobs[i].Submit {
				return false
			}
		}
		for i := range jobs {
			if !idSet[jobs[i].ID] {
				return false
			}
			delete(idSet, jobs[i].ID)
		}
		return len(idSet) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// SortBySubmit also puts every job, ties included, where the
	// sort.Slice reference puts it. Runtime carries each job's original
	// index, so equal (Submit, ID) pairs are told apart. Inputs cover
	// heavy Submit ties, all-zero IDs (as synth sorts them) and repeated
	// (Submit, ID) pairs, at sizes on both sides of pdqsort's
	// insertion-sort cutoff and large enough to reach its pattern
	// breaking.
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 5, 12, 13, 50, 200, 1000, 5000}
	shapes := []struct {
		name         string
		submits, ids int // value ranges; 1 pins the field to one value
		nearlySorted bool
	}{
		{"distinct", 1 << 30, 1 << 30, false},
		{"heavy submit ties", 8, 1 << 30, false},
		{"zero IDs", 50, 1, false},
		{"repeated pairs", 4, 3, false},
		{"all equal", 1, 1, false},
		{"nearly sorted zero IDs", 0, 1, true},
	}
	for _, sh := range shapes {
		for _, n := range sizes {
			jobs := make([]Job, n)
			for i := range jobs {
				jobs[i] = Job{ID: rng.Intn(sh.ids), Runtime: int64(i), Nodes: 1}
				switch {
				case !sh.nearlySorted:
					jobs[i].Submit = int64(rng.Intn(sh.submits))
				case rng.Intn(10) == 0:
					jobs[i].Submit = int64(rng.Intn(n))
				default:
					jobs[i].Submit = int64(i / 4)
				}
			}
			want := append([]Job(nil), jobs...)
			sortBySubmitSlice(want)
			SortBySubmit(jobs)
			for i := range jobs {
				if jobs[i].Runtime != want[i].Runtime {
					t.Errorf("%s n=%d: position %d holds input %d, sort.Slice puts input %d there",
						sh.name, n, i, jobs[i].Runtime, want[i].Runtime)
					break
				}
			}
		}
	}
}
