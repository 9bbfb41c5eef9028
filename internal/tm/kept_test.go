package tm

import (
	"bytes"
	"reflect"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// encoding is d's wire encoding, which mem keeps to itself.
func encoding(d *mem.Diff) []byte { return reflect.ValueOf(d).Elem().FieldByName("enc").Bytes() }

// TestIntervalDiffsKeptInRegion: an interval's diff lives as long as the
// run, so lazyDiff keeps it in the run's region. Four processors each
// write a word of one page under a lock and read all four after a
// barrier, so every writer's interval is diffed for the others. Captured
// inside the run, after a second barrier, the diffs carry the four words.
// Once the run is over and its region released and poisoned — what the
// harness does to a harvested run's arena under harness.PoisonReleased —
// every byte of every one reads 0xA5; a diff copied to the heap would
// still read the words.
func TestIntervalDiffsKeptInRegion(t *testing.T) {
	const procs = 4
	for _, pr := range []*TM{New(), NewLazyHybrid()} {
		t.Run(pr.Name(), func(t *testing.T) {
			var kept []*mem.Diff
			words := map[int64]bool{}
			s := proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
				x := c.S.PageBase(0)
				c.Acquire(0)
				c.WriteI64(x+8*c.ID, int64(c.ID+1))
				c.Release(0)
				c.Barrier()
				for p := 0; p < procs; p++ {
					if got := c.ReadI64(x + 8*p); got != int64(p+1) {
						t.Errorf("processor %d reads %d at word %d, want %d", c.ID, got, p, p+1)
					}
				}
				c.Barrier()
				if c.ID != 0 {
					return
				}
				for _, st := range pr.ps {
					for _, rec := range st.ivals {
						for _, d := range rec.diffs {
							if d == nil || d.EncodedBytes() == 0 {
								continue
							}
							kept = append(kept, d)
							for _, data := range d.Runs() {
								words[int64(data[0])] = true
							}
						}
					}
				}
			}}
			r := new(mem.Region)
			r.Acquire()
			m := proto.Assemble(memsys.Default().ForProcs(procs), pr, s, nil, nil, &proto.Arena{Region: r})
			if m.Run() {
				t.Fatal("deadlocked")
			}
			if len(kept) < procs || len(words) != procs {
				t.Fatalf("captured %d interval diffs carrying words %v, want one per writer at least, carrying 1..%d", len(kept), words, procs)
			}
			r.Release()
			r.Poison()
			for i, d := range kept {
				if enc := encoding(d); !bytes.Equal(enc, bytes.Repeat([]byte{0xA5}, len(enc))) {
					t.Fatalf("interval diff %d of %d (page %d, %d bytes) does not read the released region's poison: % x",
						i, len(kept), d.Page, len(enc), enc)
				}
			}
		})
	}
}
