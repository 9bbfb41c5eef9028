package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSpec feeds ParseSpec arbitrary text. It must never panic, and a
// spec it accepts must survive the trip fuzzdsm's reproduce lines make:
// Config.String() parses again, to a schedule that renders the same and —
// once a schedule has been through String, which drops the bounds of
// clauses whose probability is zero — is field for field the same. The
// seed corpus is the presets and fault_test.go's cases, below, plus
// testdata/fuzz/FuzzParseSpec; CI gives it a short budget
// (`go test -fuzz FuzzParseSpec ./internal/fault`).
func FuzzParseSpec(f *testing.F) {
	for name, spec := range Presets {
		f.Add(name)
		f.Add(spec)
	}
	for _, spec := range []string{
		"", "none", " Light ",
		"drop=0.05,dup=0.02,delay=0.1:8000,stall=0.01:20000,degrade=0.02:50000:200",
		"drop=0.01,burst=0.02:6,crash=3@50000:20000,partition=0.2.5@10000:5000",
		"burst=0.02:6,crash=3@50000:20000,crash=1@90000:50000,partition=0.2@10000:5000,partition=5@200000:30000",
		"crash=2@1000:500,partition=0.1@2000:300",
		"delay=0:100,drop=1e-3,, dup = 0.5",
		// fault_test.go's rejects.
		"bogus", "drop=2", "drop=x", "drop=NaN", "delay=0.5", "stall=0.5:0", "degrade=0.5:100", "wibble=0.5",
		"rto=5000", "drop=0.01,maxattempts=4",
		"burst=0.5", "burst=0.5:0", "crash=1", "crash=x@100:10", "crash=1@100", "crash=1@100:0",
		"partition=0.1@100", "partition=@100:10", "crash=1@100:10,restart=1@200", "partition=0.1@100:10,heal=200",
	} {
		f.Add(spec)
	}

	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		rendered := c.String()
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("%q parses, but its rendering %q does not: %v", spec, rendered, err)
		}
		if got := back.String(); got != rendered {
			t.Fatalf("%q renders %q, which parses to a schedule that renders %q", spec, rendered, got)
		}
		again, err := ParseSpec(back.String())
		if err != nil || !reflect.DeepEqual(again, back) {
			t.Fatalf("%q: the schedule of %q changed on its second trip (%v):\n%#v\nvs\n%#v", spec, rendered, err, back, again)
		}
	})
}
