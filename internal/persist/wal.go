package persist

import (
	"encoding/binary"
	"hash/crc32"

	"robustatomic/internal/wire"
)

// WAL record framing. Each record is
//
//	uvarint payload length | payload | 4-byte little-endian CRC32 (IEEE) of payload
//
// and its payload is one wire frame: exactly the bytes wire.AppendRequest
// builds for the logged request, version byte included, so every record
// decodes on its own (wire.ParseRequest) and the wire generation byte is the
// log's format version.
//
// The framing exists for crash tolerance: a torn tail (the crash interrupted
// a write mid-record) shows as an unreadable length, a length overrunning the
// file, or a CRC mismatch, and replay stops at the last intact record. Every
// record is written with a single write(2), so a torn record can only be the
// final one of a file.

// recordRoom is what buildRecord leaves ahead of the frame for the record's
// length header.
const recordRoom = binary.MaxVarintLen64

// buildRecord builds req's record in *buf, a buffer kept across records: the
// frame is encoded once, recordRoom bytes in, and framed where it stands —
// its CRC appended, its length right-aligned in the room ahead of it. The
// record is a slice of *buf.
func buildRecord(buf *[]byte, req wire.Request) ([]byte, error) {
	b, err := wire.AppendRequest(append((*buf)[:0], make([]byte, recordRoom)...), req)
	if err != nil {
		return nil, err
	}
	frame := b[recordRoom:]
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(frame))
	*buf = b
	var hdr [recordRoom]byte
	n := binary.PutUvarint(hdr[:], uint64(len(frame)))
	rec := b[recordRoom-n:]
	copy(rec, hdr[:n])
	return rec, nil
}

// cutRecord cuts the record at the front of data, returning its payload (a
// slice of data) and its framed size — or size 0 when no intact record
// starts there: a torn tail, or corruption. No record is empty, so a zero
// length is damage too (the zero-filled tail a machine crash can leave).
func cutRecord(data []byte) (payload []byte, size int) {
	n, w := binary.Uvarint(data)
	if w <= 0 || n == 0 || len(data)-w < 4 || n > uint64(len(data)-w-4) {
		return nil, 0
	}
	payload = data[w : w+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[w+int(n):]) {
		return nil, 0
	}
	return payload, w + int(n) + 4
}
