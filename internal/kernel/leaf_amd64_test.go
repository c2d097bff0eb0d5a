package kernel

// vectorLeaf returns the vector search leaf, and whether this CPU runs it.
func vectorLeaf() (leafFunc, bool) { return searchShiftAVX2, hasAVX2() }
