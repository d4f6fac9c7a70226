//go:build race

package faults

// Allocation counts under -race measure the detector, not the code.
func init() { raceBuild = true }
