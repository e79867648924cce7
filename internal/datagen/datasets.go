package datagen

import "graphflow/internal/graph"

// Dataset names mirror Table 8 of the paper. Each named constructor fixes
// generator parameters and a seed so every experiment is reproducible. The
// scale parameter multiplies the default vertex counts (scale 1 is
// laptop-sized; the paper's originals are 10-1000x larger).

// Amazon returns the Amazon-like product co-purchase graph: near-uniform
// degrees, moderate clustering.
func Amazon(scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	return CoPurchase(CoPurchaseConfig{N: 4000 * scale, K: 5, Rewire: 0.15, Seed: 1001})
}

// Epinions returns the Epinions-like social trust graph: skewed degrees,
// high clustering, small.
func Epinions(scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	return Social(SocialConfig{N: 3000 * scale, MPerV: 7, Closure: 0.35, Reciprocal: 0.25, Seed: 1002})
}

// LiveJournal returns the LiveJournal-like social graph: larger, skewed,
// highly clustered.
func LiveJournal(scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	return Social(SocialConfig{N: 12000 * scale, MPerV: 8, Closure: 0.3, Reciprocal: 0.35, Seed: 1003})
}

// Twitter returns the Twitter-like follower graph used only in the
// scalability experiment: the largest, most skewed dataset.
func Twitter(scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	return Social(SocialConfig{N: 25000 * scale, MPerV: 12, Closure: 0.15, Reciprocal: 0.1, Seed: 1004})
}

// BerkStan returns the BerkStan-like web graph: extreme in-degree skew.
func BerkStan(scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	return Web(WebConfig{N: 5000 * scale, OutDeg: 8, Copy: 0.7, Seed: 1005})
}

// Google returns the Google-web-like graph: strong but milder skew.
func Google(scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	return Web(WebConfig{N: 6000 * scale, OutDeg: 6, Copy: 0.55, Seed: 1006})
}

// Human returns the labelled graph standing in for the CFL paper's human
// protein-interaction dataset (4674 vertices, 86282 edges, 44 labels),
// matching its scale and label count for the Table 12 experiment. Labels
// are placed on edges (our engine's selective dimension) so that the
// query workload retains the large output sizes the original experiment's
// 10^5/10^8 caps imply.
func Human() *graph.Graph {
	g := Social(SocialConfig{N: 4674, MPerV: 9, Closure: 0.4, Reciprocal: 0.5, Seed: 1007})
	return Relabel(g, 1, 44, 1008)
}

// ByName returns the named dataset at the given scale, or nil if the name is
// unknown. Recognised names (case-sensitive, as in Table 8): "Amazon",
// "Epinions", "LiveJournal", "Twitter", "BerkStan", "Google", "Human".
func ByName(name string, scale int) *graph.Graph {
	switch name {
	case "Amazon", "Am":
		return Amazon(scale)
	case "Epinions", "Ep":
		return Epinions(scale)
	case "LiveJournal", "LJ":
		return LiveJournal(scale)
	case "Twitter", "Tw":
		return Twitter(scale)
	case "BerkStan", "BS":
		return BerkStan(scale)
	case "Google", "Go":
		return Google(scale)
	case "Human":
		return Human()
	}
	return nil
}

// Names lists the recognised dataset names.
func Names() []string {
	return []string{"Amazon", "Epinions", "LiveJournal", "Twitter", "BerkStan", "Google", "Human"}
}
