//go:build !amd64

package mat

// forceGoBodies is a no-op off amd64, where the pure-Go bodies are the
// only ones.
func forceGoBodies() (restore func()) { return func() {} }
