package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzJSONL writes one arbitrary event through the JSONL sink. The line
// must be one JSON object that decodes back to the event — every field
// the format carries, the note included, as encoding/json round-trips it
// (JSON cannot hold invalid UTF-8) — and the Chrome document holding the
// same event must be valid JSON too. The seed corpus is below plus
// testdata/fuzz/FuzzJSONL; CI gives it a short budget
// (`go test -fuzz FuzzJSONL ./internal/trace`).
func FuzzJSONL(f *testing.F) {
	for _, note := range []string{
		"", "IS/AEC", "[3 7]", `quote " and backslash \`, "tab\tnewline\n",
		"nul\x00", "bell\a", "\x7f", "\xff\xfe", "é ✓ 𝄞", " ", "<&>",
	} {
		f.Add(uint64(12345), 3, uint8(KindLAPPredict), 2, -1, int64(5), int64(-7), note)
	}
	f.Fuzz(func(t *testing.T, cycle uint64, proc int, kind uint8, lock, page int, arg, arg2 int64, note string) {
		ev := Event{Cycle: cycle, Proc: proc, Kind: Kind(kind), Lock: lock, Page: page, Arg: arg, Arg2: arg2, Note: note}
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Trace(ev)
		j.Close()
		line := buf.String()
		if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") || !json.Valid(buf.Bytes()) {
			t.Fatalf("%+v: not one line of JSON: %q", ev, line)
		}
		var got struct {
			C  uint64  `json:"c"`
			P  int     `json:"p"`
			K  string  `json:"k"`
			L  int     `json:"l"`
			Pg int     `json:"pg"`
			A  int64   `json:"a"`
			B  int64   `json:"b"`
			N  *string `json:"n"`
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%+v: %q does not decode: %v", ev, line, err)
		}
		if got.C != cycle || got.P != proc || got.K != ev.Kind.String() || got.L != lock ||
			got.Pg != page || got.A != arg || got.B != arg2 {
			t.Fatalf("%+v: decoded %+v from %q", ev, got, line)
		}
		enc, _ := json.Marshal(note)
		var want string
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		switch {
		case note == "" && got.N != nil:
			t.Fatalf("empty note written: %q", line)
		case note != "" && (got.N == nil || *got.N != want):
			t.Fatalf("note %q: line %q decodes to %v, want %q", note, line, got.N, want)
		}

		buf.Reset()
		c := NewChrome(&buf)
		c.Trace(ev)
		c.Close()
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("%+v: Chrome document is not JSON:\n%s", ev, buf.String())
		}
	})
}

// FuzzIntSetNote checks the lap-predict note format from both ends. The
// ids varint-decoded from raw must encode to the bytes fmt.Sprint writes
// and parse back to themselves after a prefix already in dst. An
// arbitrary note must not panic ParseIntSet; if it parses, it is exactly
// what AppendIntSet writes for the parsed ids, and if it does not, dst
// comes back unchanged. The seed corpus is below plus
// testdata/fuzz/FuzzIntSetNote; CI gives it a short budget
// (`go test -fuzz FuzzIntSetNote ./internal/trace`).
func FuzzIntSetNote(f *testing.F) {
	for _, note := range []string{
		"[]", "[3 7]", "[0]", "[-1 15]", "[9223372036854775807 -9223372036854775808]",
		"", "[", "]", "[2 3x]", "[ 1]", "[1 ]", "[1  2]", "[+1]", "[-0]", "[01]", "[-]",
		"[9223372036854775808]", "3 7", "[[3]]",
	} {
		f.Add(note, []byte{6, 14, 1})
	}
	f.Fuzz(func(t *testing.T, note string, raw []byte) {
		var set []int
		for len(raw) > 0 {
			v, n := binary.Varint(raw)
			if n <= 0 {
				break
			}
			set = append(set, int(v))
			raw = raw[n:]
		}
		enc := AppendIntSet(nil, set)
		if want := fmt.Sprint(set); string(enc) != want {
			t.Fatalf("AppendIntSet(%v) = %q, fmt.Sprint gives %q", set, enc, want)
		}
		prefix := []int{42}
		got, err := ParseIntSet(prefix, string(enc))
		if err != nil || !slices.Equal(got[1:], set) || got[0] != 42 {
			t.Fatalf("%q parses to %v, %v; want [42] followed by %v", enc, got, err, set)
		}

		got, err = ParseIntSet([]int{42}, note)
		if err != nil {
			if !slices.Equal(got, prefix) {
				t.Fatalf("rejected %q (%v) but dst became %v", note, err, got)
			}
			return
		}
		if got[0] != 42 {
			t.Fatalf("%q overwrote dst: %v", note, got)
		}
		if back := AppendIntSet(nil, got[1:]); string(back) != note {
			t.Fatalf("accepted %q as %v, which encodes to %q", note, got[1:], back)
		}
	})
}
