package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/tensor"
)

// The sweep service reuses the model wire format for its control plane:
// job requests, replies, and streamed progress events are JSON documents
// packed into the float64 payload vector. Element 0 carries the byte
// length; each following element carries 8 payload bytes in its IEEE-754
// bit pattern (little-endian). Float64bits round-trips every bit pattern
// exactly, so arbitrary bytes survive the Marshal/Unmarshal path. The
// service itself frames in place with FinishBytesFrame and ReadBytesFrame;
// PackBytes and UnpackBytes stay as the reference encoding for the tests and
// the benchmark probe, and go when ROADMAP item 5 changes the wire format.

// MaxPackedBytes caps a packed byte payload; it mirrors MaxPayload on the
// element count ((MaxPayload-1) elements of 8 bytes each).
const MaxPackedBytes = (MaxPayload - 1) * 8

// PackBytes encodes raw bytes into a payload vector for KindJob,
// KindResult, and KindProgress frames.
func PackBytes(b []byte) (tensor.Vector, error) {
	if len(b) > MaxPackedBytes {
		return nil, fmt.Errorf("transport: packed payload %d exceeds max %d", len(b), MaxPackedBytes)
	}
	vec := tensor.NewVector(1 + (len(b)+7)/8)
	vec[0] = float64(len(b))
	var chunk [8]byte
	for i := 0; i < len(b); i += 8 {
		copy(chunk[:], b[i:min(i+8, len(b))])
		vec[1+i/8] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[:]))
		chunk = [8]byte{}
	}
	return vec, nil
}

// UnpackBytes reverses PackBytes.
func UnpackBytes(vec tensor.Vector) ([]byte, error) {
	if len(vec) == 0 {
		return nil, fmt.Errorf("transport: packed payload missing length element")
	}
	n := int(vec[0])
	if float64(n) != vec[0] || n < 0 || n > MaxPackedBytes {
		return nil, fmt.Errorf("transport: bad packed length %v", vec[0])
	}
	if want := 1 + (n+7)/8; len(vec) != want {
		return nil, fmt.Errorf("transport: packed payload has %d elements, want %d for %d bytes", len(vec), want, n)
	}
	out := make([]byte, (n+7)/8*8)
	for i := 1; i < len(vec); i++ {
		binary.LittleEndian.PutUint64(out[(i-1)*8:], math.Float64bits(vec[i]))
	}
	return out[:n], nil
}

// BytesFrameReserve is the room ahead of a byte frame's document: header, length element.
const BytesFrameReserve = headerSize + 8

// FinishBytesFrame completes in place a frame whose document follows
// BytesFrameReserve reserved bytes of buf: padded to a whole element, header
// and length element filled in, it is WriteMessage's bytes for PackBytes(document).
func FinishBytesFrame(buf []byte, kind Kind, round int) ([]byte, error) {
	n := len(buf) - BytesFrameReserve
	buf = append(buf, make([]byte, -n&7)...)
	if _, err := Marshal(buf[:0], Message{Kind: kind, Round: round}); err != nil { // validates; count patched next
		return nil, err
	} else if n < 0 || n > MaxPackedBytes {
		return nil, fmt.Errorf("transport: byte frame document of %d bytes, max %d", n, MaxPackedBytes)
	}
	binary.LittleEndian.PutUint32(buf[17:21], uint32(1+(n+7)/8))
	binary.LittleEndian.PutUint64(buf[headerSize:], math.Float64bits(float64(n)))
	return buf, nil
}

// ReadBytesFrame reads one byte frame from r into *buf, grown as needed and
// meant to be passed again; doc aliases it until the next read. Every check
// ReadMessage + UnpackBytes make is made here, before the document is read.
func ReadBytesFrame(r io.Reader, buf *[]byte) (kind Kind, round int, doc []byte, err error) {
	b := slices.Grow((*buf)[:0], BytesFrameReserve)[:BytesFrameReserve]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, 0, nil, err
	}
	kind, count := Kind(b[4]), binary.LittleEndian.Uint32(b[17:21])
	length := math.Float64frombits(binary.LittleEndian.Uint64(b[headerSize:]))
	n := int(length)
	if binary.LittleEndian.Uint32(b[0:4]) != magic || !ValidKind(kind) || count > MaxPayload ||
		float64(n) != length || n < 0 || n > MaxPackedBytes || int(count) != 1+(n+7)/8 {
		return 0, 0, nil, fmt.Errorf("transport: bad byte frame header % x", b)
	}
	b = slices.Grow(b, 8*int(count-1))[:headerSize+8*int(count)]
	*buf = b
	if _, err := io.ReadFull(r, b[BytesFrameReserve:]); err != nil {
		return 0, 0, nil, err
	}
	return kind, int(binary.LittleEndian.Uint32(b[13:17])), b[BytesFrameReserve : BytesFrameReserve+n], nil
}
