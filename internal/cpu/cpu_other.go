//go:build !amd64

package cpu

// avx is false off amd64, so a caller's AVX branch compiles away.
const avx = false
