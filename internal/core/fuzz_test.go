package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"robustatomic/internal/types"
)

// decodePair is EncodePair's inverse: the encoded pair's two forms pinned, for
// as long as anything writes them. The empty value decodes to the initial
// pair.
func decodePair(v types.Value) (types.Pair, error) {
	if v.IsBottom() {
		return types.BottomPair, nil
	}
	i := strings.IndexByte(string(v), '|')
	if i < 0 {
		return types.Pair{}, fmt.Errorf("malformed write-back payload %q", v)
	}
	head, rest := string(v)[:i], string(v)[i+1:]
	seqStr, widStr, hasWID := strings.Cut(head, ".")
	seq, err := strconv.ParseInt(seqStr, 10, 64)
	if err != nil || seq <= 0 {
		return types.Pair{}, fmt.Errorf("malformed write-back timestamp in %q", v)
	}
	var wid int64
	if hasWID {
		if wid, err = strconv.ParseInt(widStr, 10, 64); err != nil || wid == 0 {
			return types.Pair{}, fmt.Errorf("malformed write-back writer id in %q", v)
		}
	}
	return types.Pair{TS: types.TS{Seq: seq, WID: wid}, Val: types.Value(rest)}, nil
}

// FuzzDecodePair exercises the write-back pair codec with arbitrary input:
// decoding must never panic, and anything that decodes must re-encode to a
// value that decodes to the same pair — across both the legacy scalar
// "seq|value" form and the multi-writer "seq.wid|value" form.
func FuzzDecodePair(f *testing.F) {
	f.Add("")
	f.Add("1|a")
	f.Add("42|hello|world")
	f.Add("3.5|multi-writer")
	f.Add("9.-2|negative-wid")
	f.Add("junk")
	f.Add("0|v")
	f.Add("3.|v")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := decodePair(types.Value(s))
		if err != nil {
			return
		}
		back, err := decodePair(EncodePair(p))
		if err != nil {
			t.Fatalf("re-encoded pair %v does not decode: %v", p, err)
		}
		if back != p {
			t.Fatalf("round trip drift: %v → %v", p, back)
		}
	})
}
