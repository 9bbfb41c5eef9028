package trace

import (
	"bufio"
	"io"
	"strconv"
	"unicode/utf8"
)

// JSONL streams events as one JSON object per line. The encoding is
// hand-rolled so it is byte-deterministic (fixed key order, no float
// formatting) and allocation-light; two identical runs produce byte-
// identical files, which makes traces diffable.
//
// Line shape:
//
//	{"c":12345,"p":3,"k":"lock-grant","l":2,"pg":-1,"a":5,"b":7}
//
// with an optional trailing ,"n":"..." when the event carries a note.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONL builds a JSONL sink writing to w. Call Close (or Flush) when
// done; the writer is buffered.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 160)}
}

// Trace implements Tracer.
func (j *JSONL) Trace(ev Event) { j.TraceEvent(&ev) }

// TraceEvent reads ev in place (see Emitter).
func (j *JSONL) TraceEvent(ev *Event) {
	b := j.buf[:0]
	b = append(b, `{"c":`...)
	b = strconv.AppendUint(b, ev.Cycle, 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(ev.Proc), 10)
	b = append(b, `,"k":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","l":`...)
	b = strconv.AppendInt(b, int64(ev.Lock), 10)
	b = append(b, `,"pg":`...)
	b = strconv.AppendInt(b, int64(ev.Page), 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, ev.Arg, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, ev.Arg2, 10)
	if ev.Note != "" {
		b = append(b, `,"n":`...)
		b = appendJSONString(b, ev.Note)
	}
	b = append(b, "}\n"...)
	j.buf = b
	j.w.Write(b)
}

// Flush pushes buffered lines to the underlying writer.
func (j *JSONL) Flush() error { return j.w.Flush() }

// Close flushes the stream. The underlying writer is not closed.
func (j *JSONL) Close() error { return j.Flush() }

// appendJSONString appends s to b as a JSON string: quote and backslash
// escaped, control characters and DEL as \u00XX, each byte of invalid
// UTF-8 as \ufffd (what encoding/json decodes it to), the rest verbatim.
// Both sinks quote notes with it; strconv.Quote and %q are Go syntax
// (\x00, \a), which JSON rejects.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, s[i:i+size]...)
			}
			i += size
			continue
		}
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20 || c == 0x7f:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
		i++
	}
	return append(b, '"')
}
