package exec

// forceGeneralPath makes every E/I stage of cp — those of a router's
// orderings included — compute each row's extension set through
// extensionSetFor, as a stage whose lists may be multisets does: no prefix
// run is looked for, nothing is pinned; the intersection cache and the
// carried sets stay on. It is the per-row reference the run path's
// counters are held to. Workers built (or taken from the pool) after the
// call obey it.
func forceGeneralPath(cp *CompiledPlan) {
	general := func(stages []stageSpec) {
		for _, st := range stages {
			if es, ok := st.(*extendSpec); ok {
				es.sets = false
			}
		}
	}
	for _, pipe := range cp.pipes {
		general(pipe.stages)
		if pipe.route != nil {
			for _, chain := range pipe.route.chains {
				general(chain)
			}
		}
	}
}
