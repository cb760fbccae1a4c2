package wire

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the frame decoder. The invariants:
// Decode never panics, never returns a frame aliasing memory outside the
// input, and every successfully decoded frame re-encodes to the exact input
// (the codec is a bijection on its valid domain).
func FuzzFrameDecode(f *testing.F) {
	// Seed corpus: every round-trip frame plus each malformed class.
	for _, fr := range roundTripFrames() {
		enc, err := AppendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[4:])
	}
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize-1))    // short header
	f.Add(make([]byte, HeaderSize))      // opcode 0
	f.Add(append(make([]byte, 8), 0xff)) // bad opcode, short
	seed := make([]byte, HeaderSize+4)
	seed[8] = byte(OpGet)
	seed[10], seed[11] = 0xff, 0xff // key length far past frame end
	f.Add(seed)
	// A bare reserved-opcode request, the same frame with a payload that
	// looks like an encoded shardmap ("SALM" magic + version + torn body),
	// and a NotOwner rejection carrying binary map bytes.
	reserved := make([]byte, HeaderSize)
	reserved[8] = byte(opReserved7)
	f.Add(reserved)
	f.Add(append(append([]byte{}, reserved...), 'S', 'A', 'L', 'M', 1, 0, 0, 0xff))
	notOwner := make([]byte, HeaderSize)
	notOwner[8] = byte(OpPut)
	notOwner[9] = byte(StatusNotOwner)
	f.Add(append(notOwner, 0xde, 0xad, 0xbe, 0xef))
	// One past the enum edges: first undefined op and status.
	badOp := make([]byte, HeaderSize)
	badOp[8] = byte(opMax)
	f.Add(badOp)
	badStatus := make([]byte, HeaderSize)
	badStatus[8] = byte(OpPing)
	badStatus[9] = byte(statusMax)
	f.Add(badStatus)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		// Variable sections must alias the input, not fresh memory.
		if len(fr.Key) > 0 && &fr.Key[0] != &data[HeaderSize] {
			t.Fatal("decoded key does not alias the input buffer")
		}
		reenc, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(reenc[4:], data) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", data, reenc[4:])
		}
	})
}
