// Package knobs is ipslint test corpus: it owns the package-level variables
// the globalwrite corpus writes from outside.
package knobs

// Level is a mutable package-level knob.
var Level = 1

// Names is a package-level map.
var Names = map[string]int{}

// Limits is a package-level struct.
var Limits struct{ Depth int }

// Ptr is a package-level pointer.
var Ptr = new(int)

// SetLevel writes the package's own variable, which globalwrite allows.
func SetLevel(v int) { Level = v }
