package ts

import (
	"math"
	"strings"
)

// Spark renders s as one block rune per value, from ▁ at its minimum to █ at
// its maximum (a constant series is all ▁).  The values are halved before
// they are subtracted, so a series that spans more than the float64 range
// (1.7e308 beside −1.7e308) cannot overflow hi − lo to +Inf; halving is
// exact, so it moves no level.  The level index is clamped to the rune
// table all the same.
func Spark(s Series) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range s {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi <= lo {
		return strings.Repeat(string(levels[0]), len(s))
	}
	top := len(levels) - 1
	span := hi/2 - lo/2
	var sb strings.Builder
	for _, v := range s {
		k := int((v/2 - lo/2) / span * float64(top))
		sb.WriteRune(levels[min(max(k, 0), top)])
	}
	return sb.String()
}
