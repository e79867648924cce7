package catalogue

import "graphflow/internal/graph"

// bitsetProbeCostFactor models the per-element premium of probing a hub
// bitset over streaming a sorted run: probes are random word loads, so
// one probed element costs about two sequentially merged ones.
const bitsetProbeCostFactor = 2.0

// EffectiveICost converts the per-descriptor (average or actual)
// adjacency-list sizes of one E/I extension into the expected per-tuple
// intersection work under the degree-adaptive kernel engine.
//
// Equation 1 charges the sum of all accessed list sizes — correct for
// pure sorted-merge intersections. With hub bitset indexes, a list at or
// above the hub threshold is not scanned: the running intersection
// result (bounded by the smallest list) is probed into its bitset at
// O(result) instead, so the list contributes min(size, factor·smallest).
// The smallest list is always walked in full. hubThreshold follows the
// store's knob convention: 0 takes graph.DefaultHubThreshold, negative
// means no indexes exist and the estimate degrades to the plain sum.
func EffectiveICost(sizes []float64, hubThreshold int) float64 {
	if len(sizes) <= 1 || hubThreshold < 0 {
		total := 0.0
		for _, s := range sizes {
			total += s
		}
		return total
	}
	th := float64(graph.DefaultHubThreshold)
	if hubThreshold > 0 {
		th = float64(hubThreshold)
	}
	smallest := sizes[0]
	for _, s := range sizes[1:] {
		if s < smallest {
			smallest = s
		}
	}
	total := smallest
	skippedSmallest := false
	for _, s := range sizes {
		if !skippedSmallest && s == smallest {
			skippedSmallest = true
			continue
		}
		if probe := bitsetProbeCostFactor * smallest; s >= th && probe < s {
			total += probe
		} else {
			total += s
		}
	}
	return total
}

// StarLeafICost prices one set computation of a star-suffix leaf: the
// intersection work of materializing a leaf's extension set once for a
// prefix group. Under factorized execution the set is computed per
// distinct prefix and reused across the whole cross-product, so the
// optimizer charges this per prefix group rather than per output tuple
// — the same arithmetic as EffectiveICost, named separately because it
// is the unit the factorized multiplier (reuseMult) multiplies against.
func StarLeafICost(sizes []float64, hubThreshold int) float64 {
	return EffectiveICost(sizes, hubThreshold)
}

// CarriedICost prices one set computation of an inheriting extension:
// the upstream extension set (expected size set) replaces the lists
// marked in covered — a bitmask over sizes' indices — and is intersected
// with the rest, so the executor accesses set plus the uncovered lists
// (the meaning Profile.ICost keeps for carried extension sets).
func CarriedICost(set float64, sizes []float64, covered uint32, hubThreshold int) float64 {
	var buf [33]float64
	accessed := append(buf[:0], set)
	for i, s := range sizes {
		if covered&(1<<uint(i)) == 0 {
			accessed = append(accessed, s)
		}
	}
	return EffectiveICost(accessed, hubThreshold)
}
