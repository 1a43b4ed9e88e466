package mat

// forceGoBodies makes every axpy kernel run its pure-Go body until the
// returned function restores the start-up dispatch. Tests and benchmarks
// only; they must not run in parallel with other kernel users.
func forceGoBodies() (restore func()) {
	old := useAVX2
	useAVX2 = false
	return func() { useAVX2 = old }
}
