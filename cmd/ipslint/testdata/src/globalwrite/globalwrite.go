// Package globalwrite is ipslint test corpus: writes to package-level
// variables declared in another package of the module.
package globalwrite

import (
	"flag"

	"ips/cmd/ipslint/testdata/src/globalwrite/knobs"
)

var count int

func writes(v int) {
	knobs.Level = v              // want "write to knobs.Level, a package-level variable of another package"
	knobs.Level += v             // want "write to knobs.Level"
	knobs.Level++                // want "write to knobs.Level"
	knobs.Level--                // want "write to knobs.Level"
	knobs.Names["a"] = v         // want "write to knobs.Names"
	knobs.Limits.Depth = v       // want "write to knobs.Limits"
	*knobs.Ptr = v               // want "write to knobs.Ptr"
	(knobs.Level) = v            // want "write to knobs.Level"
	_, knobs.Level = v, v        // want "write to knobs.Level"
	func() { knobs.Level = v }() // want "write to knobs.Level"
}

func allowed(v int) int {
	count = v // the package's own variable
	count++
	flag.Usage = func() {} // standard library: out of scope
	knobs.SetLevel(v)      // the owner writes its own variable
	level := knobs.Level   // reads are fine
	level++
	limits := knobs.Limits // a local copy is not the global
	limits.Depth = v
	return level + count + limits.Depth
}
