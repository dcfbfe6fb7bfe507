package shard

import (
	"fmt"
	"testing"
)

func TestRouterSpreadAndDeterminism(t *testing.T) {
	r, err := NewRouter(8)
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[int]int)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%03d", i)
		s := r.Locate(key)
		if s < 0 || s >= 8 {
			t.Fatalf("Locate(%q) = %d out of range", key, s)
		}
		if again := r.Locate(key); again != s {
			t.Fatalf("Locate(%q) not deterministic: %d then %d", key, s, again)
		}
		hit[s]++
	}
	if len(hit) != 8 {
		t.Errorf("64 keys hit only %d of 8 shards: %v", len(hit), hit)
	}
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(0); err == nil {
		t.Error("NewRouter(0) accepted")
	}
	var zero Router
	if zero.Locate("x") != 0 {
		t.Error("zero router must route to shard 0")
	}
}

func TestEmptyTableIsNotBottom(t *testing.T) {
	if EncodeTable(nil) == "" {
		t.Fatal("empty table must not encode to the reserved initial value ⊥")
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	cases := []map[string]string{
		{},
		{"a": "1"},
		{"a": "1", "b": "2", "order:42": "shipped"},
		{"k=ey": "v&al", "a&b=c": "=&=", "unicode-⊥": "värde", "empty": ""},
	}
	for _, m := range cases {
		enc := EncodeTable(m)
		dec, err := DecodeTable(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if len(dec) != len(m) {
			t.Fatalf("round trip of %v lost entries: %v", m, dec)
		}
		for k, v := range m {
			if dec[k] != v {
				t.Errorf("round trip of %v: key %q = %q", m, k, dec[k])
			}
		}
	}
}

func TestTableCodecDeterministic(t *testing.T) {
	a := EncodeTable(map[string]string{"x": "1", "y": "2", "z": "3"})
	b := EncodeTable(map[string]string{"z": "3", "x": "1", "y": "2"})
	if a != b {
		t.Errorf("encoding not deterministic: %q vs %q", a, b)
	}
}

func TestTableCodecRejectsGarbage(t *testing.T) {
	for _, s := range []string{"no-separator", "a=b&broken", "%zz=x"} {
		if _, err := DecodeTable(s); err == nil {
			t.Errorf("DecodeTable(%q) accepted", s)
		}
	}
}
