package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/tensor"
)

// Checkpoint format (little-endian):
//
//	magic    uint32  0x534b5054 "SKPT"
//	version  uint32  1
//	count    uint64  number of float64 parameters
//	params   count * 8 bytes
//	crc32    uint32  IEEE checksum of the params bytes
//
// Only parameters are stored — architecture is code, so the reader validates
// the parameter count against the receiving network (Network.Params is the
// vector to write, Use takes the one read). TestNetworkFlatViews pins the
// flat parameter layout through this format.

const (
	checkpointMagic   = 0x534b5054
	checkpointVersion = 1

	// maxCheckpointParams bounds the header's count field before any
	// allocation: the count is outside the CRC, so a corrupted file must
	// surface as an error, not a huge make() panic. 2^27 float64s (1 GiB)
	// is orders of magnitude above any model this engine trains.
	maxCheckpointParams = 1 << 27
)

// writeVector writes a parameter vector as a checkpoint to w. Encoding is
// bit-exact: every float64 round-trips through readVector unchanged.
func writeVector(w io.Writer, params tensor.Vector) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], checkpointVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(params)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	buf := make([]byte, 8*len(params))
	for i, v := range params {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("nn: write checkpoint params: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint crc: %w", err)
	}
	return nil
}

// readVector reads a checkpoint from r and returns the parameter vector.
// The checksum must verify; the caller validates the length against its
// receiving model.
func readVector(r io.Reader) (tensor.Vector, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nn: read checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != checkpointMagic {
		return nil, fmt.Errorf("nn: not a checkpoint (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if count > maxCheckpointParams {
		return nil, fmt.Errorf("nn: checkpoint corrupted (implausible parameter count %d)", count)
	}
	buf := make([]byte, 8*count)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("nn: read checkpoint params: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("nn: read checkpoint crc: %w", err)
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, fmt.Errorf("nn: checkpoint corrupted (crc mismatch)")
	}
	params := tensor.NewVector(int(count))
	for i := range params {
		params[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return params, nil
}
