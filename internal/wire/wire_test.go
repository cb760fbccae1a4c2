package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"salamander/internal/difs"
)

// roundTripFrames is the shared encode/decode test corpus: every opcode,
// empty and maximal variable sections, high bits in every integer field.
func roundTripFrames() []Frame {
	return []Frame{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpPing, Payload: []byte("echo")},
		{ID: 0xdeadbeefcafef00d, Op: OpPut, Key: []byte("obj-1"), Payload: bytes.Repeat([]byte{0xa5}, 4096)},
		{ID: 3, Op: OpGet, Key: []byte("k"), Offset: 1<<40 + 7, Length: 1 << 20},
		{ID: 4, Op: OpGet, Status: StatusNotFound, Key: []byte("missing"), Payload: []byte("difs: object not found")},
		{ID: 5, Op: OpDelete, Key: bytes.Repeat([]byte("k"), MaxKeyLen)},
		// Reserved opcodes still decode: the server answers them
		// StatusBadRequest instead of dropping the connection.
		{ID: 6, Op: opReserved5},
		{ID: 7, Op: opReserved5, Status: StatusBadRequest, Payload: []byte("bad request: opcode op(5)")},
		{ID: 8, Op: OpRepair, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 42}},
		{ID: 9, Op: OpPut, Status: StatusNoSpace, Key: []byte("big")},
		{ID: 10, Op: OpPut, Key: []byte{}, Payload: []byte{}},
		{ID: 11, Op: OpPing, Status: StatusShutdown},
		{ID: 12, Op: opReserved7},
		// NotOwner rejections, whose payload is a binary shard map (opaque
		// to the codec), not a message.
		{ID: 13, Op: OpDelete, Status: StatusNotOwner, Key: []byte("k"), Payload: []byte{0x53, 0x41, 0x4c, 0x4d, 0x01, 0x00, 0xff}},
		{ID: 14, Op: OpGet, Status: StatusNotOwner, Key: []byte("foreign"), Payload: bytes.Repeat([]byte{0x5a}, 64)},
		{ID: 15, Op: OpPut, Status: StatusNotOwner, Key: []byte("k")},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, f := range roundTripFrames() {
		enc, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		if want := 4 + HeaderSize + len(f.Key) + len(f.Payload); len(enc) != want {
			t.Fatalf("frame %d: encoded %d bytes, want %d", i, len(enc), want)
		}
		got, err := Decode(enc[4:])
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		assertFrameEq(t, i, f, got)

		// Same frame through the streaming reader, with a reused buffer.
		var buf []byte
		got2, buf, err := ReadFrame(bytes.NewReader(enc), buf)
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if len(buf) < HeaderSize {
			t.Fatalf("frame %d: scratch buffer not returned", i)
		}
		assertFrameEq(t, i, f, got2)
	}
}

func assertFrameEq(t *testing.T, i int, want, got Frame) {
	t.Helper()
	if got.ID != want.ID || got.Op != want.Op || got.Status != want.Status ||
		got.Offset != want.Offset || got.Length != want.Length {
		t.Fatalf("frame %d: header mismatch: got %+v want %+v", i, got, want)
	}
	if !bytes.Equal(got.Key, want.Key) {
		t.Fatalf("frame %d: key mismatch: %q != %q", i, got.Key, want.Key)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got.Payload), len(want.Payload))
	}
}

// TestFrameStreamReuse decodes many frames back to back from one stream
// through one scratch buffer — the server read-loop pattern.
func TestFrameStreamReuse(t *testing.T) {
	frames := roundTripFrames()
	var stream []byte
	for i := range frames {
		var err error
		stream, err = AppendFrame(stream, &frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := range frames {
		var got Frame
		var err error
		got, buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		assertFrameEq(t, i, frames[i], got)
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestMalformedFrames is the rejection suite: every class of hostile or
// corrupt frame must fail with the right error, and the streaming reader must
// reject hostile length fields before allocating.
func TestMalformedFrames(t *testing.T) {
	valid, err := AppendFrame(nil, &Frame{ID: 1, Op: OpGet, Key: []byte("k"), Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	body := valid[4:]

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrShortFrame},
		{"short header", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrShortFrame},
		{"bad opcode zero", func(b []byte) []byte { b[8] = 0; return b }, ErrBadOp},
		{"bad opcode high", func(b []byte) []byte { b[8] = byte(opMax); return b }, ErrBadOp},
		{"key past frame end", func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[10:12], uint16(len(b))) // keyLen > remaining bytes
			return b
		}, ErrBadKey},
		{"key over MaxKeyLen", func(b []byte) []byte {
			big := make([]byte, HeaderSize+MaxKeyLen+1)
			copy(big, b[:HeaderSize])
			binary.BigEndian.PutUint16(big[10:12], MaxKeyLen+1)
			return big
		}, ErrBadKey},
		{"oversized", func(b []byte) []byte { return make([]byte, MaxFrame+1) }, ErrFrameTooBig},
	}
	for _, tc := range cases {
		b := append([]byte(nil), body...)
		if _, err := Decode(tc.mutate(b)); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.wantErr)
		}
	}

	t.Run("status past statusMax", func(t *testing.T) {
		// statusMax moves as statuses are appended (StatusNotOwner most
		// recently); whatever its current value, it must stay undecodable.
		b := append([]byte(nil), body...)
		b[9] = byte(statusMax)
		if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "unknown status") {
			t.Fatalf("got %v, want unknown status", err)
		}
	})

	t.Run("reader oversized length field", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("got %v, want ErrFrameTooBig", err)
		}
	})
	t.Run("reader undersized length field", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], HeaderSize-1)
		if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("got %v, want ErrShortFrame", err)
		}
	})
	t.Run("reader truncated body", func(t *testing.T) {
		if _, _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-1]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("reader truncated length prefix", func(t *testing.T) {
		if _, _, err := ReadFrame(bytes.NewReader(valid[:2]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

func TestAppendFrameRejectsInvalid(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{ID: 1, Op: OpGet, Key: make([]byte, MaxKeyLen+1)}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("oversized key: got %v", err)
	}
	if _, err := AppendFrame(nil, &Frame{ID: 1, Op: opInvalid}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("invalid op: got %v", err)
	}
	if _, err := AppendFrame(nil, &Frame{ID: 1, Op: OpPut, Payload: make([]byte, MaxFrame)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized payload: got %v", err)
	}
}

// TestStatusMapping pins the error <-> status bijection both directions: a
// difs error crossing the wire must come back as the same sentinel.
func TestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want Status
	}{
		{nil, StatusOK},
		{difs.ErrNotFound, StatusNotFound},
		{difs.ErrAlreadyExist, StatusExists},
		{difs.ErrNoSpace, StatusNoSpace},
		{difs.ErrDataLoss, StatusDataLoss},
		{difs.ErrNotOwner, StatusNotOwner},
		{ErrBadRequest, StatusBadRequest},
		{ErrTimeout, StatusTimeout},
		{ErrShutdown, StatusShutdown},
		{errors.New("anything else"), StatusInternal},
	}
	for _, tc := range cases {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %v, want %v", tc.err, got, tc.want)
		}
		back := StatusError(tc.want, "ctx")
		if tc.err == nil {
			if back != nil {
				t.Errorf("StatusError(OK) = %v, want nil", back)
			}
			continue
		}
		if tc.want != StatusInternal && !errors.Is(back, tc.err) {
			t.Errorf("StatusError(%v) = %v, does not wrap %v", tc.want, back, tc.err)
		}
		if tc.want == StatusNotOwner {
			// NotOwner payloads are binary shard maps, never folded into the
			// error message.
			if strings.Contains(back.Error(), "ctx") {
				t.Errorf("StatusError(NotOwner) embedded the payload: %v", back)
			}
			continue
		}
		if !strings.Contains(back.Error(), "ctx") {
			t.Errorf("StatusError(%v) lost the message: %v", tc.want, back)
		}
	}
	// Wrapped difs errors map too (the server sees them wrapped with object
	// context).
	wrapped := difs.ErrNotFound
	if got := StatusOf(errWrap{wrapped}); got != StatusNotFound {
		t.Errorf("wrapped not-found mapped to %v", got)
	}
}

type errWrap struct{ inner error }

func (e errWrap) Error() string { return "outer: " + e.inner.Error() }
func (e errWrap) Unwrap() error { return e.inner }
