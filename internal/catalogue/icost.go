package catalogue

// EffectiveICost converts the per-descriptor (average or actual)
// adjacency-list sizes of one E/I extension into the expected per-tuple
// intersection work: Equation 1's sum of all accessed list sizes. The
// executor merges or gallops every list it intersects, and the pinned
// sweep of a prefix run reads no more than that.
func EffectiveICost(sizes []float64) float64 {
	total := 0.0
	for _, s := range sizes {
		total += s
	}
	return total
}

// CarriedICost prices one set computation of an inheriting extension:
// the upstream extension set (expected size set) replaces the lists
// marked in covered — a bitmask over sizes' indices — and is intersected
// with the rest, so the executor accesses set plus the uncovered lists
// (the meaning Profile.ICost keeps for carried extension sets).
func CarriedICost(set float64, sizes []float64, covered uint32) float64 {
	total := set
	for i, s := range sizes {
		if covered&(1<<uint(i)) == 0 {
			total += s
		}
	}
	return total
}
