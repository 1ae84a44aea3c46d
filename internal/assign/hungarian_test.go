package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveTrivial(t *testing.T) {
	got := Solve([][]float64{{5}})
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("1x1 = %v", got)
	}
	if Solve(nil) != nil {
		t.Error("empty should be nil")
	}
}

func TestSolveKnown(t *testing.T) {
	// Classic example: optimal assignment (0->1, 1->0, 2->2) = 2+3+2 = 7?
	// Verify against brute force below instead of hand numbers.
	cost := [][]float64{
		{4, 2, 8},
		{3, 7, 6},
		{9, 5, 2},
	}
	got := Solve(cost)
	want := bruteForce(cost)
	if math.Abs(Cost(cost, got)-want) > 1e-9 {
		t.Errorf("cost %v, optimal %v (assignment %v)", Cost(cost, got), want, got)
	}
}

func TestSolveIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		cost := randMatrix(rng, n)
		got := Solve(cost)
		seen := make([]bool, n)
		for _, j := range got {
			if j < 0 || j >= n || seen[j] {
				t.Fatalf("not a permutation: %v", got)
			}
			seen[j] = true
		}
	}
}

func TestSolveMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		cost := randMatrix(rng, n)
		got := Cost(cost, Solve(cost))
		want := bruteForce(cost)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestForbiddenPairs(t *testing.T) {
	inf := math.Inf(1)
	// Only one finite perfect matching: 0->1, 1->0.
	cost := [][]float64{
		{inf, 3},
		{2, inf},
	}
	got := Solve(cost)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("forbidden-pair assignment = %v", got)
	}
	// No finite perfect matching at all.
	bad := [][]float64{
		{inf, inf},
		{2, 1},
	}
	got = Solve(bad)
	if got[0] != -1 && !math.IsInf(Cost(bad, got), 1) {
		t.Errorf("infeasible should surface: %v", got)
	}
}

func randMatrix(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.Float64() * 10
		}
	}
	return m
}

func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			s := 0.0
			for i, j := range perm {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// TestSolverReuse: one Solver fed problems of changing sizes, some with
// forbidden pairs and some with no finite matching, answers every one as a
// fresh Solve does, and re-solving a size it has seen allocates nothing.
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Solver
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		cost := randMatrix(rng, n)
		for k := rng.Intn(1 + n*n/2); k > 0; k-- {
			cost[rng.Intn(n)][rng.Intn(n)] = math.Inf(1)
		}
		got := s.Solve(cost)
		want := Solve(cost)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: reused solver gave %v, fresh Solve %v", trial, got, want)
			}
		}
	}
	cost := randMatrix(rng, 8)
	if a := testing.AllocsPerRun(10, func() { s.Solve(cost) }); a != 0 {
		t.Errorf("re-solve allocated %v times", a)
	}
}
