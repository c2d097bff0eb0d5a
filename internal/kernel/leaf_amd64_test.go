package kernel

// vectorAccumulate returns the vector accumulate leaf, and whether this CPU
// runs it.
func vectorAccumulate() (accLeaf, bool) { return accumulateLJAVX2, hasAVX2() }

// vectorCellLeaf returns the cell leaf, and whether this CPU runs it.
func vectorCellLeaf() (cellLeafFunc, bool) { return searchCellAVX2, hasAVX2() }
