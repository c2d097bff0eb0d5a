//go:build !amd64

package kernel

// vectorLeaf reports that no vector search leaf exists on this GOARCH.
func vectorLeaf() (leafFunc, bool) { return nil, false }
