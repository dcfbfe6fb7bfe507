package robustatomic

import (
	"fmt"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	c, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Objects() != 4 || c.Faults() != 1 {
		t.Fatalf("geometry: S=%d t=%d", c.Objects(), c.Faults())
	}
	w := c.Writer()
	if err := w.Write("hello"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "hello" {
		t.Errorf("read = %q", v)
	}
}

func TestPublicAPIInitialValueEmpty(t *testing.T) {
	c, err := NewCluster(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "" {
		t.Errorf("initial read = %q", v)
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	for _, mode := range []string{"silent", "garbage", "stale", "equivocate", "flaky"} {
		c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := c.Writer()
		if err := w.Write("v1"); err != nil {
			t.Fatal(err)
		}
		if err := c.InjectFault(1, mode); err != nil {
			t.Fatal(err)
		}
		if err := w.Write("v2"); err != nil {
			t.Fatalf("%s: write: %v", mode, err)
		}
		r, _ := c.Reader(1)
		v, err := r.Read()
		if err != nil {
			t.Fatalf("%s: read: %v", mode, err)
		}
		if v != "v2" {
			t.Errorf("%s: read = %q, want v2", mode, v)
		}
		c.Close()
	}
	c, _ := NewCluster(Options{})
	defer c.Close()
	if err := c.InjectFault(1, "nonsense"); err == nil {
		t.Error("unknown fault mode accepted")
	}
}

// TestSiblingRefusesDifferentReaderCount: R is a cluster-wide constant — the
// identities of one deployment are numbered against one R.
func TestSiblingRefusesDifferentReaderCount(t *testing.T) {
	c, err := NewCluster(Options{Faults: 1, Readers: 3, WriterID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, readers := range []int{0, 1, 4} { // 0 defaults to 2
		if sib, err := c.Sibling(Options{Faults: 1, Readers: readers}); err == nil {
			sib.Close()
			t.Errorf("sibling with Readers = %d accepted on a cluster with 3", readers)
		}
	}
	sib, err := c.Sibling(Options{Faults: 1, Readers: 3, WriterID: 1})
	if err != nil {
		t.Fatalf("sibling with the cluster's reader count refused: %v", err)
	}
	sib.Close()
}

func TestPublicAPIConcurrent(t *testing.T) {
	eachChaosCluster(t, Options{Faults: 1, Readers: 3, Seed: 4}, func(t *testing.T, c *Cluster, run func(...func())) {
		clients := []func(){func() {
			w := c.Writer()
			for i := 1; i <= 5; i++ {
				if err := w.Write(fmt.Sprintf("v%d", i)); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}}
		for i := 1; i <= 3; i++ {
			clients = append(clients, func() {
				r, err := c.Reader(i)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 3; j++ {
					if _, err := r.Read(); err != nil {
						t.Errorf("read: %v", err)
					}
				}
			})
		}
		run(clients...)
	})
}

func TestPublicAPIReaderBounds(t *testing.T) {
	c, err := NewCluster(Options{Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Reader(0); err == nil {
		t.Error("reader 0 accepted")
	}
	if _, err := c.Reader(3); err == nil {
		t.Error("reader beyond R accepted")
	}
}

func TestConnectValidatesGeometry(t *testing.T) {
	if _, err := Connect([]string{"x:1", "x:2"}, Options{Faults: 1}); err == nil {
		t.Error("2 addresses accepted for t=1 (needs 4)")
	}
}
