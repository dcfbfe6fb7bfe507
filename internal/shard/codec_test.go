package shard

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

// TestTextTablesRefused: register values written by the pre-binary text codec
// (percent-escaped "k=v&k=v", "!" for the empty table) are refused with the
// typed version error — never decoded as something else.
func TestTextTablesRefused(t *testing.T) {
	for _, enc := range []string{"!", "a=1", "a=1&b=2&order%3A42=shipped", "=empty-key", "garbage"} {
		if m, err := DecodeTable(enc); !errors.Is(err, ErrTableVersion) {
			t.Errorf("DecodeTable(%q) = %v, %v; want ErrTableVersion", enc, m, err)
		}
	}
}

func TestBinaryCodecRejectsGarbage(t *testing.T) {
	cases := []string{
		"\x01",                  // truncated count
		"\x01\x05",              // count 5, no entries
		"\x01\x01\x09key",       // key length past payload
		"\x01\x01\x03key",       // missing value length
		"\x01\x01\x03key\x05va", // value length past payload
		"\x01\x00trailing",      // bytes after the last entry
		"\x01\x01\x03key\x02vvEXTRA",
		"\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", // varint overflow
	}
	for _, s := range cases {
		if m, err := DecodeTable(s); err == nil {
			t.Errorf("DecodeTable(%q) accepted: %v", s, m)
		}
	}
}

func TestEncodeSortedMatchesEncodeTable(t *testing.T) {
	m := map[string]string{"z": "26", "a": "1", "m": "13", "": "empty"}
	keys := SortedKeys(m)
	if got, want := EncodeSorted(keys, m), EncodeTable(m); got != want {
		t.Errorf("EncodeSorted = %q, EncodeTable = %q", got, want)
	}
}

func TestSortedKeyMaintenance(t *testing.T) {
	var keys []string
	for _, k := range []string{"m", "a", "z", "a", "m"} { // duplicates are no-ops
		keys = InsertSorted(keys, k)
	}
	if !sort.StringsAreSorted(keys) || len(keys) != 3 {
		t.Fatalf("after inserts: %v", keys)
	}
	keys = RemoveSorted(keys, "m")
	keys = RemoveSorted(keys, "absent") // removing an absent key is a no-op
	if fmt.Sprint(keys) != "[a z]" {
		t.Fatalf("after removes: %v", keys)
	}
	keys = RemoveSorted(RemoveSorted(keys, "a"), "z")
	if len(keys) != 0 {
		t.Fatalf("not emptied: %v", keys)
	}
}

// benchTable builds a deterministic n-key table and its sorted key slice.
func benchTable(n int) (map[string]string, []string) {
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("key-%06d", i)] = fmt.Sprintf("value-%d-of-a-realistic-size", i)
	}
	return m, SortedKeys(m)
}

// BenchmarkTableCodec times the codec across table sizes (run with
// -benchmem: the pooled encoder allocates nothing at steady state).
func BenchmarkTableCodec(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		m, keys := benchTable(n)
		b.Run(fmt.Sprintf("binary/encode/keys=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EncodeSorted(keys, m)
			}
		})
		b.Run(fmt.Sprintf("binary/append-pooled/keys=%d", n), func(b *testing.B) {
			// The Store committer's shape: one long-lived buffer reused
			// across flushes — the encode itself allocates nothing at
			// steady state (compare allocs/op against binary/encode; the
			// flush's only remaining allocation is the immutable register
			// value copied out of this buffer).
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendSorted(buf[:0], keys, m)
			}
		})
		binEnc := EncodeSorted(keys, m)
		b.Run(fmt.Sprintf("binary/decode/keys=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DecodeTable(binEnc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
