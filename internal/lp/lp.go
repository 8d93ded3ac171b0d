// Package lp solves the optimization problem of Section 5.3.2 of the paper:
// computing the throughput of an instruction from its port usage by finding a
// schedule of µops to ports that minimizes the maximum port load.
//
// Two solvers are provided:
//
//   - MinMaxLoad: an exact combinatorial solver based on the duality between
//     the minimum makespan of fractionally divisible µop groups and the most
//     loaded port subset (for every subset S of ports, all µops whose
//     allowed ports are contained in S must run on S, so the optimum is the
//     maximum over subsets of "µops confined to S" / |S|). With at most 8
//     ports the 256 subsets are enumerated directly.
//
//   - Simplex: a small dense two-phase simplex solver for general linear
//     programs, used to solve the paper's LP formulation directly; the two
//     solvers are validated against each other in the tests.
//
//uopslint:deterministic
package lp

import (
	"fmt"
	"math"

	"uopsinfo/internal/uarch"
)

// PortGroup is one entry of a port-usage mapping: Count µops that may each
// execute on any of the Ports.
type PortGroup struct {
	Ports uarch.PortSet
	Count float64
}

// MinMaxLoad returns the smallest achievable maximum per-port load when the
// µops of each group are distributed (fractionally) over that group's ports.
// This equals the instruction's throughput in cycles per instruction under
// Intel's definition (Definition 1) for instructions that do not use the
// divider. Ports outside [0, numPorts) are ignored. Groups with no valid
// ports contribute load that cannot be scheduled; they cause an error.
func MinMaxLoad(groups []PortGroup, numPorts int) (float64, error) {
	if numPorts <= 0 || numPorts > uarch.MaxPorts {
		return 0, fmt.Errorf("lp: invalid port count %d", numPorts)
	}
	// Cut the groups to the machine's ports.
	machine := uarch.PortsBelow(numPorts)
	var cut []PortGroup
	for _, g := range groups {
		if g.Count == 0 {
			continue
		}
		if g.Count < 0 {
			return 0, fmt.Errorf("lp: negative µop count %v", g.Count)
		}
		if g.Ports&machine == 0 {
			return 0, fmt.Errorf("lp: group with %v µops has no valid port", g.Count)
		}
		cut = append(cut, PortGroup{Ports: g.Ports & machine, Count: g.Count})
	}
	if len(cut) == 0 {
		return 0, nil
	}
	best := 0.0
	for mask := 1; mask < 1<<numPorts; mask++ {
		s := uarch.PortSet(mask)
		confined := 0.0
		for _, g := range cut {
			if g.Ports.SubsetOf(s) {
				confined += g.Count
			}
		}
		if load := confined / float64(s.Len()); load > best {
			best = load
		}
	}
	return best, nil
}

// MinMaxLoadLP solves the same problem via the explicit linear program from
// the paper: minimize z subject to
//
//	sum_p f(p,pc) = count(pc)        for every port group pc
//	sum_pc f(p,pc) <= z              for every port p
//	f(p,pc) = 0                      if p not in pc, f >= 0.
//
// It exists alongside MinMaxLoad to validate the combinatorial solver (and
// vice versa).
func MinMaxLoadLP(groups []PortGroup, numPorts int) (float64, error) {
	if numPorts <= 0 {
		return 0, fmt.Errorf("lp: invalid port count %d", numPorts)
	}
	// Variable layout: f(g,p) for each group g and each allowed port p, then z.
	type varKey struct{ g, p int }
	varIdx := make(map[varKey]int)
	nv := 0
	for gi, g := range groups {
		if g.Count == 0 {
			continue
		}
		ok := false
		for p := range numPorts {
			if g.Ports.Has(p) {
				varIdx[varKey{gi, p}] = nv
				nv++
				ok = true
			}
		}
		if !ok {
			return 0, fmt.Errorf("lp: group %d has no valid port", gi)
		}
	}
	zIdx := nv
	nv++
	if nv == 1 {
		return 0, nil
	}

	var prob Problem
	prob.NumVars = nv
	prob.Objective = make([]float64, nv)
	prob.Objective[zIdx] = 1 // minimize z

	// Equality constraints: each group's µops are fully assigned.
	for gi, g := range groups {
		if g.Count == 0 {
			continue
		}
		row := make([]float64, nv)
		for p := range numPorts {
			if idx, ok := varIdx[varKey{gi, p}]; ok {
				row[idx] = 1
			}
		}
		prob.AddConstraint(row, EQ, g.Count)
	}
	// Load constraints: per-port load minus z is at most 0.
	for p := 0; p < numPorts; p++ {
		row := make([]float64, nv)
		any := false
		for gi, g := range groups {
			if g.Count == 0 {
				continue
			}
			if idx, ok := varIdx[varKey{gi, p}]; ok {
				row[idx] = 1
				any = true
			}
		}
		if !any {
			continue
		}
		row[zIdx] = -1
		prob.AddConstraint(row, LE, 0)
	}

	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// Schedule returns, in addition to the optimal maximum load, a concrete
// fractional assignment of µops to ports achieving it: result[g][p] is the
// fraction of group g's µops placed on port p. It uses a water-filling
// refinement of the exact bound.
func Schedule(groups []PortGroup, numPorts int) (float64, [][]float64, error) {
	z, err := MinMaxLoad(groups, numPorts)
	if err != nil {
		return 0, nil, err
	}
	assign := make([][]float64, len(groups))
	load := make([]float64, numPorts)
	// Place the most constrained groups first (fewest allowed ports), always
	// on the currently least-loaded allowed port, in small increments. With
	// the optimal z known, this greedy never needs to exceed z by more than
	// a rounding epsilon.
	order := make([]int, 0, len(groups))
	for i := range groups {
		assign[i] = make([]float64, numPorts)
		if groups[i].Count > 0 {
			order = append(order, i)
		}
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if groups[order[j]].Ports.Len() < groups[order[i]].Ports.Len() {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	const step = 1.0 / 64
	for _, gi := range order {
		remaining := groups[gi].Count
		for remaining > 1e-12 {
			chunk := math.Min(step, remaining)
			best := -1
			for p := range numPorts {
				if groups[gi].Ports.Has(p) && (best == -1 || load[p] < load[best]) {
					best = p
				}
			}
			if best == -1 {
				return 0, nil, fmt.Errorf("lp: group %d has no valid port", gi)
			}
			load[best] += chunk
			assign[gi][best] += chunk
			remaining -= chunk
		}
	}
	return z, assign, nil
}
