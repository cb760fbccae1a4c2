// Package wire defines Salamander's compact binary serving protocol: the
// frame format spoken between cmd/salsrv and the salnet client library. A
// frame is a 4-byte big-endian length prefix followed by a fixed 24-byte
// header and two variable sections (object key, payload):
//
//	+--------+----------------------------------------------+
//	| uint32 | frame length L (header + key + payload)      |
//	+--------+----------------------------------------------+
//	| uint64 | request id (echoed verbatim in the response)  |
//	| uint8  | opcode                                        |
//	| uint8  | status (0 on requests; error code on replies) |
//	| uint16 | key length K                                  |
//	| uint64 | offset (ranged reads)                         |
//	| uint32 | length (ranged reads; 0 = to end)             |
//	+--------+----------------------------------------------+
//	| K      | key bytes                                     |
//	| L-24-K | payload bytes                                 |
//	+--------+----------------------------------------------+
//
// Responses carry the request's id and opcode, so a server may answer
// pipelined requests out of order and the client demultiplexes by id.
//
// Encode and decode are zero-copy friendly: AppendFrame appends into a
// caller-owned buffer, Decode returns a Frame whose Key and Payload alias the
// input buffer, and ReadFrame reads into (and returns) a reusable scratch
// buffer. The hot paths in salnet allocate nothing per frame in steady state.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"salamander/internal/difs"
)

// Frame size limits. MaxFrame bounds a frame's length field so a corrupt or
// hostile peer cannot make the reader allocate unbounded memory; it comfortably
// fits the largest object the load tools move plus the header.
const (
	// HeaderSize is the fixed header length after the 4-byte length prefix.
	HeaderSize = 24
	// MaxKeyLen is the longest accepted object key.
	MaxKeyLen = 4096
	// MaxFrame caps the length field (header + key + payload).
	MaxFrame = 16 << 20
)

// Op is a request opcode.
type Op uint8

// Opcodes. Responses reuse the request's opcode. Values are wire-pinned, so
// new ops go before opMax only.
const (
	opInvalid Op = iota
	// OpPing echoes the payload back — liveness and latency probe.
	OpPing
	// OpPut stores payload under key, replacing any existing object (upsert:
	// the replace semantics make retries after a lost response idempotent).
	OpPut
	// OpGet reads the object at key; Offset/Length select a byte range
	// (Length 0 = through the end).
	OpGet
	// OpDelete removes the object at key. Deleting a missing object succeeds
	// (idempotent), unlike difs.Delete — a retried delete whose first attempt
	// landed must not surface an error.
	OpDelete
	// opReserved5 and opReserved7 are retired opcodes (an object listing
	// and a shard-map fetch). They still decode, so a peer that sends one
	// gets StatusBadRequest rather than a dropped connection, and their
	// numbers are never reused.
	opReserved5
	// OpRepair runs one cluster repair pass; the response payload is the
	// big-endian uint64 count of chunk copies created.
	OpRepair
	opReserved7
	opMax
)

// String names the opcode for logs and traces.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpRepair:
		return "repair"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > opInvalid && o < opMax }

// Status is a response error code. Zero means success; the payload of a
// non-OK response is a human-readable message.
type Status uint8

// Status codes.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusExists
	StatusNoSpace
	StatusDataLoss
	StatusBadRequest
	StatusTimeout
	StatusShutdown
	StatusInternal
	// StatusNotOwner rejects a keyed op whose shard the server does not
	// own. Unlike other error responses the payload is not a message: it
	// carries the server's current encoded shard map, so a stale client
	// refreshes its routing and retries against the right owner in one
	// round trip. Appended after StatusInternal: status values are
	// wire-pinned, so new codes go before statusMax only.
	StatusNotOwner
	statusMax
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not_found"
	case StatusExists:
		return "exists"
	case StatusNoSpace:
		return "no_space"
	case StatusDataLoss:
		return "data_loss"
	case StatusBadRequest:
		return "bad_request"
	case StatusTimeout:
		return "timeout"
	case StatusShutdown:
		return "shutdown"
	case StatusInternal:
		return "internal"
	case StatusNotOwner:
		return "not_owner"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Decode/read errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrShortFrame  = errors.New("wire: frame shorter than its header")
	ErrBadOp       = errors.New("wire: unknown opcode")
	ErrBadKey      = errors.New("wire: key length exceeds frame or MaxKeyLen")
	ErrTimeout     = errors.New("wire: op deadline exceeded")
	ErrShutdown    = errors.New("wire: server shutting down")
	ErrBadRequest  = errors.New("wire: malformed request")
)

// Frame is one decoded protocol frame. Key and Payload alias the decode
// buffer — copy them before the buffer is reused.
type Frame struct {
	ID      uint64
	Op      Op
	Status  Status
	Offset  uint64
	Length  uint32
	Key     []byte
	Payload []byte
}

// AppendFrame appends the encoded frame (length prefix included) to dst and
// returns the extended slice. It validates the size limits the decoder
// enforces, so a frame that encodes always decodes.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Key) > MaxKeyLen {
		return dst, fmt.Errorf("%w: key %d bytes", ErrBadKey, len(f.Key))
	}
	if !f.Op.Valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadOp, uint8(f.Op))
	}
	l := HeaderSize + len(f.Key) + len(f.Payload)
	if l > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, l)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(l))
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = append(dst, byte(f.Op), byte(f.Status))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Key)))
	dst = binary.BigEndian.AppendUint64(dst, f.Offset)
	dst = binary.BigEndian.AppendUint32(dst, f.Length)
	dst = append(dst, f.Key...)
	dst = append(dst, f.Payload...)
	return dst, nil
}

// Decode parses one frame body (the bytes after the 4-byte length prefix).
// The returned Frame's Key and Payload alias buf.
func Decode(buf []byte) (Frame, error) {
	if len(buf) < HeaderSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(buf))
	}
	if len(buf) > MaxFrame {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(buf))
	}
	f := Frame{
		ID:     binary.BigEndian.Uint64(buf[0:8]),
		Op:     Op(buf[8]),
		Status: Status(buf[9]),
		Offset: binary.BigEndian.Uint64(buf[12:20]),
		Length: binary.BigEndian.Uint32(buf[20:24]),
	}
	if !f.Op.Valid() {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadOp, buf[8])
	}
	if f.Status >= statusMax {
		return Frame{}, fmt.Errorf("wire: unknown status %d", buf[9])
	}
	keyLen := int(binary.BigEndian.Uint16(buf[10:12]))
	if keyLen > MaxKeyLen || HeaderSize+keyLen > len(buf) {
		return Frame{}, fmt.Errorf("%w: %d bytes in %d-byte frame", ErrBadKey, keyLen, len(buf))
	}
	f.Key = buf[HeaderSize : HeaderSize+keyLen]
	f.Payload = buf[HeaderSize+keyLen:]
	return f, nil
}

// ReadFrame reads one length-prefixed frame from r using buf as scratch,
// growing it as needed. It returns the decoded frame (aliasing the returned
// buffer) and the buffer for reuse on the next call. A length field outside
// [HeaderSize, MaxFrame] fails before any body byte is read, so a hostile
// length cannot force a large allocation.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Frame{}, buf, err
	}
	l := int(binary.BigEndian.Uint32(lenb[:]))
	if l > MaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: length field %d", ErrFrameTooBig, l)
	}
	if l < HeaderSize {
		return Frame{}, buf, fmt.Errorf("%w: length field %d", ErrShortFrame, l)
	}
	if cap(buf) < l {
		buf = make([]byte, l)
	}
	buf = buf[:l]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A peer that dies mid-frame surfaces as ErrUnexpectedEOF — the
		// "truncated frame" failure the client retries.
		return Frame{}, buf, err
	}
	f, err := Decode(buf)
	return f, buf, err
}

// StatusOf maps an error from the difs layer (or the serving layer itself) to
// its wire status.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, difs.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, difs.ErrAlreadyExist):
		return StatusExists
	case errors.Is(err, difs.ErrNoSpace):
		return StatusNoSpace
	case errors.Is(err, difs.ErrDataLoss):
		return StatusDataLoss
	case errors.Is(err, difs.ErrNotOwner):
		return StatusNotOwner
	case errors.Is(err, ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, ErrTimeout):
		return StatusTimeout
	case errors.Is(err, ErrShutdown):
		return StatusShutdown
	default:
		return StatusInternal
	}
}

// StatusError converts a non-OK response back into the error the in-process
// difs API would have returned, so callers can errors.Is against difs
// sentinels regardless of which side of the wire they run on. msg is the
// server's message payload, kept for context.
func StatusError(s Status, msg string) error {
	var base error
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		base = difs.ErrNotFound
	case StatusExists:
		base = difs.ErrAlreadyExist
	case StatusNoSpace:
		base = difs.ErrNoSpace
	case StatusDataLoss:
		base = difs.ErrDataLoss
	case StatusNotOwner:
		// The payload of a NotOwner response is the owner's encoded shard
		// map, not prose — don't fold binary bytes into the message.
		return difs.ErrNotOwner
	case StatusBadRequest:
		base = ErrBadRequest
	case StatusTimeout:
		base = ErrTimeout
	case StatusShutdown:
		base = ErrShutdown
	default:
		base = errors.New("wire: internal server error")
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}
