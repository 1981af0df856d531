// Package cpu reports the instruction-set extensions the module's assembly
// kernels need.  Detection runs once, at package init, and the answer never
// changes, so the CPU alone picks which pass a kernel runs.
package cpu

// AVX reports whether the CPU and the OS support AVX.  It is false on every
// GOARCH but amd64.
func AVX() bool { return avx }
