package aec

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// encoding is d's wire encoding, which mem keeps to itself.
func encoding(d *mem.Diff) []byte { return reflect.ValueOf(d).Elem().FieldByName("enc").Bytes() }

// TestArchivedDiffsKeptInRegion: an archived outside diff lives as long as
// the run, so archiveTwinStep and archiveOutside's same-step merge keep it
// in the run's region. p2 writes a word of page 1 outside any critical
// section, archived by itself when p0 fetches it after the barrier. p1
// writes a word of page 0 outside, a second inside a critical section and
// a third outside after it, so its outside diff is archived twice for one
// step — early, at the write fault in the critical section, then once the
// step ends — and the second archive is merged over the first (the
// "outside, inside, outside" script of internal/check). Captured inside the
// run, after a second barrier, the archive holds the two outside diffs.
// Once the run is over and its region released and poisoned — what the
// harness does to a harvested run's arena under harness.PoisonReleased —
// every byte of both reads 0xA5; a diff merged on the heap would still
// read the words.
func TestArchivedDiffsKeptInRegion(t *testing.T) {
	for _, opt := range bothKinds {
		t.Run(New(opt).Name(), func(t *testing.T) {
			pr := New(opt)
			archived := map[string]*mem.Diff{}
			runs := map[string]string{}
			s := proto.Script{Homes: []int{0, 0}, Locks: 1, Do: func(c *proto.Ctx) {
				x, y := c.S.PageBase(0), c.S.PageBase(1)
				switch c.ID {
				case 1:
					c.Compute(100_000)
					c.WriteI64(x, 7)
					c.Acquire(0)
					c.WriteI64(x+64, 9)
					c.Release(0)
					c.WriteI64(x+128, 5)
				case 2:
					c.WriteI64(y, 3)
				}
				c.Barrier()
				if c.ID == 0 {
					read(t, c, x, 7, "written outside the critical section")
					read(t, c, x+128, 5, "written outside after it")
					read(t, c, y, 3, "written outside by p2")
				}
				c.Barrier()
				if c.ID != 0 {
					return
				}
				for proc, st := range pr.ps {
					for pg := range st.pages {
						for _, sd := range st.pages[pg].archive {
							key := fmt.Sprintf("p%d page %d", proc, pg)
							archived[key] = sd.d
							var offs []int
							for off := range sd.d.Runs() {
								offs = append(offs, off)
							}
							runs[key] += fmt.Sprint(offs)
						}
					}
				}
			}}
			r := new(mem.Region)
			r.Acquire()
			run(t, proto.Assemble(memsys.Default().ForProcs(3), pr, s, nil, nil, &proto.Arena{Region: r}))
			if want := map[string]string{"p1 page 0": "[0 128]", "p2 page 1": "[0]"}; !reflect.DeepEqual(runs, want) {
				t.Fatalf("the archives hold diffs with runs at %v, want %v", runs, want)
			}
			r.Release()
			r.Poison()
			for key, d := range archived {
				if enc := encoding(d); !bytes.Equal(enc, bytes.Repeat([]byte{0xA5}, len(enc))) {
					t.Errorf("%s's archived diff (%d bytes) does not read the released region's poison: % x", key, len(enc), enc)
				}
			}
		})
	}
}
