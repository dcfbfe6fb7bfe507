package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"robustatomic/internal/types"
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

// scratch is what a Rewrite builds in and hands back: a flush a shard must not
// cost an allocation per buffer.
type scratch struct {
	edit  types.Edit
	entry []byte
}

var rewriteScratch = sync.Pool{New: func() any { return new(scratch) }}

// Rewrite returns the encoding that follows enc — the encoding of a table as
// it was — once the keys in touched hold what m, the table as it is, holds
// for them (nothing, when m lacks them), and the edit (types.Edit) that
// derives it from enc: one splice per entry that changed, found by walking
// enc's entries beside the touched keys, so that a writer changing one key of
// a 36 KB table neither re-encodes the table nor ships it. This is the one
// place an edit is built. touched is sorted in place and may repeat keys; m
// must differ from enc's table at touched keys only. ok is false when enc is
// not an encoding this can edit — ⊥, or a foreign producer's whose keys do
// not ascend — or m is not what the walk arrives at: encode m in full then.
func Rewrite(enc string, touched []string, m map[string]string) (next, edit types.Value, ok bool) {
	if enc == "" || enc[0] != binaryMagic {
		return "", "", false
	}
	n, w := uvarint(enc[1:])
	if w <= 0 {
		return "", "", false
	}
	slices.Sort(touched)
	sc := rewriteScratch.Get().(*scratch)
	e, entry := &sc.edit, sc.entry
	defer func() {
		sc.entry = entry
		rewriteScratch.Put(sc)
	}()
	e.Reset()
	if uint64(len(m)) != n {
		entry = binary.AppendUvarint(entry[:0], uint64(len(m)))
		e.Splice(1, w, entry)
	}
	off, count, ti, prev := 1+w, n, 0, ""
	for i := uint64(0); i <= n; i++ {
		var key, val string
		size := 0
		if i < n {
			var rest string
			var err error
			if key, rest, err = cutPrefixed(enc[off:], "key"); err == nil {
				val, rest, err = cutPrefixed(rest, "value")
			}
			if err != nil || i > 0 && key <= prev {
				return "", "", false
			}
			size, prev = len(enc)-off-len(rest), key
		}
		// The touched keys that sort before this entry (past the last: all
		// that are left) are new: their entries go in here.
		for ; ti < len(touched) && (i == n || touched[ti] <= key); ti++ {
			t := touched[ti]
			if ti > 0 && t == touched[ti-1] {
				continue
			}
			v, in := m[t]
			if in {
				entry = binary.AppendUvarint(entry[:0], uint64(len(t)))
				entry = binary.AppendUvarint(append(entry, t...), uint64(len(v)))
				entry = append(entry, v...)
			}
			switch {
			case i < n && t == key && !in:
				e.Splice(off, size, nil)
				count--
			case i < n && t == key && v != val:
				e.Splice(off, size, entry)
			case (i == n || t != key) && in:
				e.Splice(off, 0, entry)
				count++
			}
		}
		off += size
	}
	if off != len(enc) || count != uint64(len(m)) {
		return "", "", false
	}
	edit = e.Value(len(enc))
	next, ok = types.Value(enc).Splice(edit)
	return next, edit, ok
}
