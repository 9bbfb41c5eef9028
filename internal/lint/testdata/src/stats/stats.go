// Package stats is the fixture stand-in for aecdsm/internal/stats: just
// enough surface for the fixtures to name a charge's category.
package stats

// Category mirrors the real execution-time breakdown categories.
type Category int

const (
	Busy Category = iota
	Data
	Synch
)
