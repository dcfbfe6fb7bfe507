package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// The shard-table codec packs one shard's key→value table into a single
// register value — binary v1: a 0x01 header byte, a varint entry count, then
// per entry a varint-length-prefixed key and value, keys in sorted order. No
// escaping, no per-encode sorting (writers maintain the sorted key slice
// incrementally), one allocation per encode. The register's reserved initial
// value ⊥ (the empty string) is never encoded and decodes to an empty table;
// a value with any other header byte (releases before the binary codec wrote
// percent-escaped text, which never starts with a control byte) is refused
// with ErrTableVersion.

// binaryMagic is the header byte of binary codec version 1.
const binaryMagic = 0x01

// ErrTableVersion reports a register value that is not a shard table in a
// format this software reads.
var ErrTableVersion = errors.New("shard: unsupported table encoding")

// EncodeTable packs a table into one register value (binary v1). The
// encoding is deterministic (keys sorted) and injective.
func EncodeTable(m map[string]string) string {
	return EncodeSorted(SortedKeys(m), m)
}

// EncodeSorted packs a table whose sorted key slice the caller already
// maintains, skipping the per-encode sort and key-slice allocation — the
// write hot path. keys must hold exactly m's keys in ascending order.
func EncodeSorted(keys []string, m map[string]string) string {
	return string(AppendSorted(nil, keys, m))
}

// AppendSorted appends the binary v1 encoding of the table to dst and
// returns the extended slice, growing dst at most once (the exact encoded
// size is computed up front). Callers that flush repeatedly keep one
// long-lived buffer and pass dst[:0], so the encode itself allocates
// nothing at steady state — the only remaining per-flush allocation is the
// immutable register value the bytes are copied into (messages retain their
// values, so they must not alias a reused buffer). keys must hold exactly
// m's keys in ascending order.
func AppendSorted(dst []byte, keys []string, m map[string]string) []byte {
	size := 1 + varintLen(uint64(len(keys)))
	for _, k := range keys {
		v := m[k]
		size += varintLen(uint64(len(k))) + len(k) + varintLen(uint64(len(v))) + len(v)
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, binaryMagic)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		v := m[k]
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// varintLen returns the encoded size of x as a uvarint.
func varintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// DecodeTable unpacks an encoded shard table. The empty string (the
// register's initial value ⊥) decodes to an empty table.
func DecodeTable(s string) (map[string]string, error) {
	if s == "" {
		return map[string]string{}, nil
	}
	if s[0] != binaryMagic {
		return nil, fmt.Errorf("%w: header byte %#02x, want %#02x", ErrTableVersion, s[0], binaryMagic)
	}
	rest := s[1:]
	n, w := uvarint(rest)
	if w <= 0 {
		return nil, fmt.Errorf("shard: truncated table entry count")
	}
	rest = rest[w:]
	if n > uint64(len(rest)) { // each entry costs ≥ 2 bytes; cheap bound against forged counts
		return nil, fmt.Errorf("shard: table entry count %d exceeds payload", n)
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		var k, v string
		var err error
		if k, rest, err = cutPrefixed(rest, "key"); err != nil {
			return nil, err
		}
		if v, rest, err = cutPrefixed(rest, "value"); err != nil {
			return nil, err
		}
		m[k] = v
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("shard: %d trailing bytes after table entries", len(rest))
	}
	return m, nil
}

// cutPrefixed cuts one varint-length-prefixed field off the front of s.
func cutPrefixed(s, what string) (field, rest string, err error) {
	n, w := uvarint(s)
	if w <= 0 || n > uint64(len(s)-w) {
		return "", "", fmt.Errorf("shard: truncated table %s", what)
	}
	return s[w : w+int(n)], s[w+int(n):], nil
}

// uvarint is binary.Uvarint over a string, avoiding a []byte conversion.
func uvarint(s string) (uint64, int) {
	var x uint64
	var shift uint
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b < 0x80 {
			if i > 9 || i == 9 && b > 1 {
				return 0, -(i + 1) // overflow
			}
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// SortedKeys returns m's keys in ascending order.
func SortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// InsertSorted inserts key into the ascending slice keys if absent,
// returning the updated slice. Writers maintain their shard's key slice
// with this instead of re-sorting per encode.
func InsertSorted(keys []string, key string) []string {
	i := sort.SearchStrings(keys, key)
	if i < len(keys) && keys[i] == key {
		return keys
	}
	keys = append(keys, "")
	copy(keys[i+1:], keys[i:])
	keys[i] = key
	return keys
}

// RemoveSorted removes key from the ascending slice keys if present.
func RemoveSorted(keys []string, key string) []string {
	i := sort.SearchStrings(keys, key)
	if i >= len(keys) || keys[i] != key {
		return keys
	}
	return append(keys[:i], keys[i+1:]...)
}
