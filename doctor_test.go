package robustatomic

import (
	"testing"

	"robustatomic/internal/types"
)

// TestDoctorFindsDivergedTimestamps: two objects holding different values at
// one timestamp of one register are reported, with both holders; an object
// that cannot be read is skipped and named, not counted clean; on every link.
func TestDoctorFindsDivergedTimestamps(t *testing.T) {
	eachFabric(t, 4, func(t *testing.T, f *fabric) {
		c := f.connect(Options{Faults: 1, Readers: 2, Seed: 81})
		if err := c.Writer().Write("v"); err != nil {
			t.Fatal(err)
		}
		if rep := c.Doctor(1); len(rep.Diverged)+len(rep.Skipped) != 0 {
			t.Fatalf("doctor on a clean cluster: %+v", rep)
		}
		at := types.At(7)
		for i, val := range []types.Value{"one", "other"} {
			d := f.direct(c, f.addrs[i])
			if err := d.Seed(1, types.WriterReg, types.Pair{TS: at, Val: val}); err != nil {
				t.Fatal(err)
			}
			d.Close()
		}
		f.kill(f.addrs[3])
		rep := c.Doctor(1)
		if len(rep.Diverged) != 1 || len(rep.Skipped) != 1 || rep.Skipped[4] == nil {
			t.Fatalf("doctor = %+v, want one diverged timestamp and object 4 skipped", rep)
		}
		if d := rep.Diverged[0]; d.Reg != 1 || d.TS != at || len(d.Holders) != 2 || d.Holders[0].Object != 1 || d.Holders[1].Object != 2 {
			t.Errorf("divergence = %+v, want register instance 1, %v, held by objects 1 and 2", d, at)
		}
	})
}
