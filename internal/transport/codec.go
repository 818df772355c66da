package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Wire format (little-endian):
//
//	magic   uint32  0x444c4d31 "DLM1"
//	kind    uint8
//	from    int32
//	to      int32
//	round   int32
//	count   uint32  number of float64 payload elements
//	payload count * 8 bytes, IEEE-754 bits
//
// The fixed header is 21 bytes. A CIFAR-10 model message is
// 21 + 89834*8 = 718,693 bytes, matching the paper's observation that
// model exchange dominates traffic volume but not energy.

const (
	magic      = 0x444c4d31
	headerSize = 4 + 1 + 4 + 4 + 4 + 4
	// MaxPayload caps decoded payload length to prevent a corrupt or
	// hostile length field from exhausting memory. The largest model in
	// the reproduction is the 1,690,046-parameter FEMNIST CNN.
	MaxPayload = 16 << 20 // 16M elements = 128 MiB
)

// EncodedSize returns the wire size of a message with n payload elements.
func EncodedSize(n int) int { return headerSize + 8*n }

// Marshal appends the wire encoding of m to dst and returns the result.
func Marshal(dst []byte, m Message) ([]byte, error) {
	if m.Kind == 0 {
		return nil, fmt.Errorf("transport: message kind unset")
	}
	if len(m.Vec) > MaxPayload {
		return nil, fmt.Errorf("transport: payload %d exceeds max %d", len(m.Vec), MaxPayload)
	}
	if m.From < 0 || m.To < 0 || m.From > math.MaxInt32 || m.To > math.MaxInt32 {
		return nil, fmt.Errorf("transport: node ids (%d,%d) out of int32 range", m.From, m.To)
	}
	if m.Round < 0 || m.Round > math.MaxInt32 {
		return nil, fmt.Errorf("transport: round %d out of int32 range", m.Round)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	hdr[4] = byte(m.Kind)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(m.From))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(m.To))
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(m.Round))
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(m.Vec)))
	dst = append(dst, hdr[:]...)
	var buf [8]byte
	for _, v := range m.Vec {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		dst = append(dst, buf[:]...)
	}
	return dst, nil
}

// Unmarshal decodes one message from b, returning the message and the
// number of bytes consumed.
func Unmarshal(b []byte) (Message, int, error) {
	if len(b) < headerSize {
		return Message{}, 0, fmt.Errorf("transport: short header: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != magic {
		return Message{}, 0, fmt.Errorf("transport: bad magic %#x", binary.LittleEndian.Uint32(b[0:4]))
	}
	count := binary.LittleEndian.Uint32(b[17:21])
	if count > MaxPayload {
		return Message{}, 0, fmt.Errorf("transport: payload length %d exceeds max", count)
	}
	need := headerSize + 8*int(count)
	if len(b) < need {
		return Message{}, 0, fmt.Errorf("transport: short payload: have %d, need %d", len(b), need)
	}
	m := Message{
		Kind:  Kind(b[4]),
		From:  int(binary.LittleEndian.Uint32(b[5:9])),
		To:    int(binary.LittleEndian.Uint32(b[9:13])),
		Round: int(binary.LittleEndian.Uint32(b[13:17])),
	}
	if !ValidKind(m.Kind) {
		return Message{}, 0, fmt.Errorf("transport: unknown kind %d", b[4])
	}
	if count > 0 {
		m.Vec = tensor.NewVector(int(count))
		for i := 0; i < int(count); i++ {
			off := headerSize + 8*i
			m.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
		}
	}
	return m, need, nil
}
