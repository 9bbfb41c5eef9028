// Package onefinding breaks one dsmvet rule once.
package onefinding

import "time"

// Stamp reads the wall clock, which the determinism analyzer forbids.
func Stamp() int64 {
	return time.Now().UnixNano()
}
