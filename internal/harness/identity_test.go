package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"path/filepath"
	"testing"

	"aecdsm/internal/trace"
)

// digest is a writer that hashes what it is given and counts its lines.
type digest struct {
	h     hash.Hash
	lines int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) {
	d.lines += bytes.Count(p, []byte{'\n'})
	return d.h.Write(p)
}

func (d *digest) String() string { return fmt.Sprintf("%d lines, sha256 %x", d.lines, d.h.Sum(nil)) }

// TestTracedTablesDigest is the byte identity of the traced quick run,
// `tables -scale 0.05 -jobs 1 -trace t.jsonl`: every table and figure at
// scale 0.05, each simulation traced into one JSONL stream. Its stdout and
// the stream are hashed as they are written (no file), and both digests
// must match testdata/traced_tables_digest.txt: a change that moves one
// simulated cycle or one trace byte fails here. A change that means to
// move them rewrites the digest with the goldens:
//
//	go test ./internal/harness -run TestTracedTablesDigest -update-golden
func TestTracedTablesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced scale-0.05 tables take about 2 s")
	}
	out, stream := newDigest(), newDigest()
	jsonl := trace.NewJSONL(stream)
	e := NewExperiments(0.05)
	e.Jobs = 1
	e.Tracer = jsonl
	e.All(out)
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "traced_tables_digest.txt"), fmt.Appendf(nil, "stdout: %s\ntrace:  %s\n", out, stream))
}
