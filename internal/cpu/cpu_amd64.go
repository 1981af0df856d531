package cpu

// avx is detected once at package init.
var avx = hasAVX()

// hasAVX executes CPUID and XGETBV: AVX and OSXSAVE in CPUID.1:ECX, and the
// XMM and YMM state enabled in XCR0.
func hasAVX() bool
