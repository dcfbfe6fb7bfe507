package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"robustatomic/internal/types"
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

// TestRewriteMatchesEncode: over random tables and random batches of sets and
// deletes (repeated keys, keys before the first and past the last entry,
// no-ops, a count crossing the one-byte varint), Rewrite arrives at exactly
// the encoding of the table as it now is, its edit derives that from the old
// encoding, and an edit of one key is a few bytes more than the entry.
func TestRewriteMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 300; iter++ {
		m := map[string]string{}
		for n := rng.Intn(140); n > 0; n-- {
			m[fmt.Sprintf("k%03d", rng.Intn(200))] = strings.Repeat("v", rng.Intn(40))
		}
		if len(m) == 0 {
			m["k000"] = ""
		}
		enc := EncodeTable(m)
		var touched []string
		for n := rng.Intn(6); n > 0; n-- {
			k := fmt.Sprintf("k%03d", rng.Intn(210)-5)
			switch rng.Intn(3) {
			case 0:
				delete(m, k)
			case 1:
				m[k] = strings.Repeat("w", rng.Intn(300))
			default: // touched, unchanged
			}
			touched = append(touched, k)
		}
		next, edit, ok := Rewrite(enc, touched, m)
		if want := EncodeTable(m); !ok || string(next) != want {
			t.Fatalf("iter %d: Rewrite = %q, %v; the table encodes as %q", iter, next, ok, want)
		}
		if got, ok := types.Value(enc).Splice(edit); !ok || got != next {
			t.Fatalf("iter %d: the edit does not derive the new encoding from the old", iter)
		}
	}

	m, _ := benchTable(256)
	enc := EncodeTable(m)
	m["key-000128"] = "a new value of a realistic size"
	next, edit, ok := Rewrite(enc, []string{"key-000128"}, m)
	if !ok || string(next) != EncodeTable(m) || len(edit) > 64 {
		t.Fatalf("one key of %d bytes of table: ok %v, edit %d bytes", len(enc), ok, len(edit))
	}

	// What cannot be edited: ⊥, a foreign encoding, keys that do not ascend, a
	// table that differs from the encoding outside the touched keys.
	unsorted := string(AppendSorted(nil, []string{"b", "a"}, map[string]string{"a": "1", "b": "2"}))
	for name, enc := range map[string]string{"⊥": "", "foreign": "k=v", "unsorted": unsorted, "truncated": enc[:len(enc)-1]} {
		if _, _, ok := Rewrite(enc, nil, map[string]string{"a": "1", "b": "2"}); ok {
			t.Errorf("%s: edited", name)
		}
	}
	if _, _, ok := Rewrite(EncodeTable(map[string]string{"a": "1"}), []string{"b"}, map[string]string{"a": "1", "b": "2", "c": "3"}); ok {
		t.Error("a table that changed at an untouched key: edited")
	}
}
