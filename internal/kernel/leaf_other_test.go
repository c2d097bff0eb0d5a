//go:build !amd64

package kernel

// vectorAccumulate reports that no vector accumulate leaf exists on this
// GOARCH.
func vectorAccumulate() (accLeaf, bool) { return nil, false }

// vectorCellLeaf reports that no cell leaf exists on this GOARCH.
func vectorCellLeaf() (cellLeafFunc, bool) { return nil, false }
