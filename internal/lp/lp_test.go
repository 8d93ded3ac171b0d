package lp

import (
	"math"
	"testing"
	"testing/quick"

	"uopsinfo/internal/uarch"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestMinMaxLoadKnownCases(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		groups   []PortGroup
		numPorts int
		want     float64
	}{
		{"single µop on four ports", []PortGroup{{Ports: uarch.NewPortSet(0, 1, 5, 6), Count: 1}}, 8, 0.25},
		{"single µop on one port", []PortGroup{{Ports: uarch.NewPortSet(1), Count: 1}}, 8, 1},
		{"1*p0 + 1*p015 (MOVQ2DQ)", []PortGroup{
			{Ports: uarch.NewPortSet(0), Count: 1}, {Ports: uarch.NewPortSet(0, 1, 5), Count: 1}}, 8, 1},
		{"2*p05 (PBLENDVB on Nehalem)", []PortGroup{{Ports: uarch.NewPortSet(0, 5), Count: 2}}, 6, 1},
		{"1*p0156 + 1*p06 (ADC on Haswell)", []PortGroup{
			{Ports: uarch.NewPortSet(0, 1, 5, 6), Count: 1}, {Ports: uarch.NewPortSet(0, 6), Count: 1}}, 8, 0.5},
		{"2*p5 + 1*p01 (VHADDPD)", []PortGroup{
			{Ports: uarch.NewPortSet(5), Count: 2}, {Ports: uarch.NewPortSet(0, 1), Count: 1}}, 8, 2},
		{"load + ALU", []PortGroup{
			{Ports: uarch.NewPortSet(2, 3), Count: 1}, {Ports: uarch.NewPortSet(0, 1, 5, 6), Count: 1}}, 8, 0.5},
		{"empty", nil, 8, 0},
	}
	for _, tc := range cases {
		got, err := MinMaxLoad(tc.groups, tc.numPorts)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !almostEqual(got, tc.want) {
			t.Errorf("%s: MinMaxLoad = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMinMaxLoadErrors(t *testing.T) {
	t.Parallel()
	if _, err := MinMaxLoad([]PortGroup{{Ports: 0, Count: 1}}, 8); err == nil {
		t.Error("accepted a group with no ports")
	}
	if _, err := MinMaxLoad([]PortGroup{{Ports: uarch.NewPortSet(0), Count: -1}}, 8); err == nil {
		t.Error("accepted a negative µop count")
	}
	if _, err := MinMaxLoad(nil, 0); err == nil {
		t.Error("accepted zero ports")
	}
	if _, err := MinMaxLoad([]PortGroup{{Ports: uarch.NewPortSet(9), Count: 1}}, 8); err == nil {
		t.Error("accepted a group whose only port is out of range")
	}
}

func TestMinMaxLoadLPAgreesWithCombinatorialSolver(t *testing.T) {
	t.Parallel()
	cases := [][]PortGroup{
		{{Ports: uarch.NewPortSet(0, 1, 5, 6), Count: 1}},
		{{Ports: uarch.NewPortSet(0), Count: 1}, {Ports: uarch.NewPortSet(0, 1, 5), Count: 1}},
		{{Ports: uarch.NewPortSet(0, 5), Count: 2}},
		{{Ports: uarch.NewPortSet(5), Count: 2}, {Ports: uarch.NewPortSet(0, 1), Count: 1}},
		{{Ports: uarch.NewPortSet(2, 3), Count: 1}, {Ports: uarch.NewPortSet(2, 3, 7), Count: 1}, {Ports: uarch.NewPortSet(4), Count: 1}},
		{{Ports: uarch.NewPortSet(0, 1), Count: 3}, {Ports: uarch.NewPortSet(1, 5), Count: 2}, {Ports: uarch.NewPortSet(0, 5, 6), Count: 1}},
	}
	for i, groups := range cases {
		exact, err := MinMaxLoad(groups, 8)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		viaLP, err := MinMaxLoadLP(groups, 8)
		if err != nil {
			t.Fatalf("case %d (LP): %v", i, err)
		}
		if math.Abs(exact-viaLP) > 1e-6 {
			t.Errorf("case %d: combinatorial %v != simplex %v", i, exact, viaLP)
		}
	}
}

// Property: the two solvers agree on random instances, the optimum is at
// least totalUops/numPorts and at least the load forced onto any single
// port.
func TestSolversAgreeProperty(t *testing.T) {
	t.Parallel()
	type groupSpec struct {
		Mask  uint8
		Count uint8
	}
	f := func(specs []groupSpec) bool {
		const numPorts = 6
		var groups []PortGroup
		total := 0.0
		for _, s := range specs {
			if len(groups) >= 5 {
				break
			}
			ports := uarch.PortSet(s.Mask) & uarch.PortsBelow(numPorts)
			if ports == 0 {
				continue
			}
			count := float64(s.Count%4) + 1
			groups = append(groups, PortGroup{Ports: ports, Count: count})
			total += count
		}
		if len(groups) == 0 {
			return true
		}
		exact, err := MinMaxLoad(groups, numPorts)
		if err != nil {
			return false
		}
		viaLP, err := MinMaxLoadLP(groups, numPorts)
		if err != nil {
			return false
		}
		if math.Abs(exact-viaLP) > 1e-4 {
			return false
		}
		// Lower bound: total work divided by the number of ports.
		if exact+1e-9 < total/numPorts {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestScheduleRespectsOptimum(t *testing.T) {
	t.Parallel()
	groups := []PortGroup{
		{Ports: uarch.NewPortSet(0), Count: 1},
		{Ports: uarch.NewPortSet(0, 1, 5), Count: 1},
		{Ports: uarch.NewPortSet(5), Count: 1},
	}
	z, assign, err := Schedule(groups, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(z, 1) {
		t.Errorf("optimal load = %v, want 1", z)
	}
	// Every group's µops are fully assigned, only to allowed ports.
	for gi, g := range groups {
		sum := 0.0
		for p, v := range assign[gi] {
			if v > 0 && !g.Ports.Has(p) {
				t.Errorf("group %d assigned to disallowed port %d", gi, p)
			}
			sum += v
		}
		if !almostEqual(sum, g.Count) {
			t.Errorf("group %d assigned %v µops, want %v", gi, sum, g.Count)
		}
	}
}

func TestSimplexSimpleLP(t *testing.T) {
	t.Parallel()
	// minimize x + y subject to x + 2y >= 4, 3x + y >= 6, x,y >= 0.
	// Optimum at x = 1.6, y = 1.2 with objective 2.8.
	var p Problem
	p.NumVars = 2
	p.Objective = []float64{1, 1}
	p.AddConstraint([]float64{1, 2}, GE, 4)
	p.AddConstraint([]float64{3, 1}, GE, 6)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Objective, 2.8) {
		t.Errorf("objective = %v, want 2.8", sol.Objective)
	}
}

func TestSimplexEqualityConstraints(t *testing.T) {
	t.Parallel()
	// minimize 2x + 3y subject to x + y == 10, x <= 4.
	// Optimum: x = 4, y = 6, objective 26.
	var p Problem
	p.NumVars = 2
	p.Objective = []float64{2, 3}
	p.AddConstraint([]float64{1, 1}, EQ, 10)
	p.AddConstraint([]float64{1, 0}, LE, 4)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Objective, 26) {
		t.Errorf("objective = %v, want 26", sol.Objective)
	}
	if !almostEqual(sol.X[0], 4) || !almostEqual(sol.X[1], 6) {
		t.Errorf("solution = %v, want [4 6]", sol.X)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	t.Parallel()
	// x <= 1 and x >= 2 is infeasible.
	var p Problem
	p.NumVars = 1
	p.Objective = []float64{1}
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 2)
	if _, err := p.Solve(); err == nil {
		t.Error("Solve accepted an infeasible problem")
	}
}

func TestSimplexUnbounded(t *testing.T) {
	t.Parallel()
	// maximize x (minimize -x) with only x >= 1: unbounded below for -x.
	var p Problem
	p.NumVars = 1
	p.Objective = []float64{-1}
	p.AddConstraint([]float64{1}, GE, 1)
	if _, err := p.Solve(); err == nil {
		t.Error("Solve accepted an unbounded problem")
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	t.Parallel()
	// minimize x subject to -x <= -3  (i.e. x >= 3).
	var p Problem
	p.NumVars = 1
	p.Objective = []float64{1}
	p.AddConstraint([]float64{-1}, LE, -3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sol.Objective, 3) {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
}

func TestSimplexRejectsBadProblems(t *testing.T) {
	t.Parallel()
	var p Problem
	if _, err := p.Solve(); err == nil {
		t.Error("Solve accepted a problem with no variables")
	}
	p.NumVars = 2
	p.Objective = []float64{1}
	if _, err := p.Solve(); err == nil {
		t.Error("Solve accepted a mismatched objective length")
	}
}
