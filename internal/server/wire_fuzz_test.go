package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"unicode/utf8"
)

// FuzzReadFrame attacks the frame decoder, the one parser the service puts
// in front of untrusted bytes. For any input ReadFrame must not panic; a
// length prefix of 0 or more than MaxFrame must fail having read the header
// alone, without allocating the payload it announces; a frame cut short must
// fail with io.EOF or io.ErrUnexpectedEOF; and a whole frame is consumed
// exactly. Independently, the frame WriteFrame makes of a Request built from
// the fuzzer's strings must read back equal (JSON turns invalid UTF-8 into
// U+FFFD, so for such strings the decoded request must survive a second
// round trip unchanged instead).
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, &Request{Tenant: "acme", Query: "SELECT count(*) FROM rt"}); err != nil {
		f.Fatal(err)
	}
	oversize := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	f.Add(valid.Bytes(), "acme", "SELECT count(*) FROM rt")
	f.Add([]byte{0, 0, 0, 0, '{', '}'}, "", "")
	f.Add(append(oversize, `{"tenant":"a"}`...), "a", "SELECT * FROM t WHERE v > 0.5")
	f.Add(valid.Bytes()[:2], "t\xff", "\x00")
	f.Add(valid.Bytes()[:4+(valid.Len()-4)/2], "tenant", "SELECT sum(v) FROM t")

	f.Fuzz(func(t *testing.T, data []byte, tenant, query string) {
		r := bytes.NewReader(data)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		var req Request
		err := ReadFrame(r, &req)
		consumed := len(data) - r.Len()
		switch {
		case len(data) < 4:
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d-byte header: err %v, want io.EOF or io.ErrUnexpectedEOF", len(data), err)
			}
		case binary.BigEndian.Uint32(data) == 0 || binary.BigEndian.Uint32(data) > MaxFrame:
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if err == nil || consumed != 4 {
				t.Fatalf("length %d: err %v after %d bytes, want an error after the header", binary.BigEndian.Uint32(data), err, consumed)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame/2 {
				t.Fatalf("length %d: %d bytes allocated before rejecting it", binary.BigEndian.Uint32(data), grew)
			}
		case uint64(len(data)-4) < uint64(binary.BigEndian.Uint32(data)):
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated frame: err %v, want io.EOF or io.ErrUnexpectedEOF", err)
			}
		default:
			if want := 4 + int(binary.BigEndian.Uint32(data)); consumed != want {
				t.Fatalf("whole frame of %d bytes: consumed %d", want, consumed)
			}
		}

		in := Request{Tenant: tenant, Query: query}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &in); err != nil {
			return // longer than MaxFrame once encoded
		}
		var out Request
		if err := ReadFrame(&buf, &out); err != nil {
			t.Fatalf("reading back %q: %v", buf.Bytes(), err)
		}
		if utf8.ValidString(tenant) && utf8.ValidString(query) {
			if out != in {
				t.Fatalf("round trip: got %+v, want %+v", out, in)
			}
			return
		}
		if err := WriteFrame(&buf, &out); err != nil {
			t.Fatal(err)
		}
		var again Request
		if err := ReadFrame(&buf, &again); err != nil || again != out {
			t.Fatalf("second round trip: got %+v (%v), want %+v", again, err, out)
		}
	})
}
