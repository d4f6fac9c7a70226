//go:build race

package experiments

// The race detector's sync.Pool drops a random share of what is put back,
// so allocation counts under -race measure the detector, not the code.
func init() { raceBuild = true }
