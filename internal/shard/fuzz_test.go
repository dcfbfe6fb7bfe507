package shard

import (
	"reflect"
	"testing"
)

// FuzzTableCodec exercises the shard-table codec with arbitrary input: any
// byte string must either fail to decode or decode to a table that
// re-encodes and decodes to the same table (decode is total and round-trip
// stable; the decoder must never panic or accept two readings of one
// input). The CI fuzz smoke job runs this against the corpus plus fresh
// mutations.
func FuzzTableCodec(f *testing.F) {
	f.Add("")
	f.Add(EncodeTable(map[string]string{"k": "v", "key:2": "x|y%z"}))
	f.Add("a=1&b=") // the pre-binary text encoding: refused
	f.Add("\x01\x02k1v1")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, s string) {
		table, err := DecodeTable(s)
		if err != nil {
			return
		}
		re := EncodeTable(table)
		back, err := DecodeTable(re)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if !reflect.DeepEqual(table, back) {
			t.Fatalf("round trip drift: %v → %v", table, back)
		}
		// The incremental sorted-key helpers agree with a fresh sort.
		keys := SortedKeys(table)
		if EncodeSorted(keys, table) != re {
			t.Fatal("EncodeSorted disagrees with EncodeTable")
		}
	})
}
