// faultinjection demonstrates robustness under every Byzantine behavior in
// the library's attack suite, while recording the full operation history
// and checking it against the paper's four atomicity properties — the same
// validation machinery the test suite uses, here driven as an application.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

func main() {
	const t = 2
	s := quorum.OptimalObjects(t)
	th, err := quorum.NewThresholds(s, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-injection torture: S=%d objects, t=%d Byzantine, 3 readers, 6 writes\n", s, t)

	// The objects, in this process: the clients below reach them in parallel.
	hosts := server.NewHosts(s)
	mux := tcpnet.NewMemMux(hosts)
	defer mux.Close()

	h := &checker.History{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := core.NewWriter(mux.Client(types.Writer, 0), th)
		for i := 1; i <= 6; i++ {
			if i == 3 { // two objects turn Byzantine mid-run, with different attacks
				hosts[0].SetBehavior(server.Garbage{Level: 1 << 40, Val: "forged-by-s1"})
				hosts[1].SetBehavior(&server.ReplayOnly{Rand: rand.New(rand.NewSource(5))})
				fmt.Println("  [s1 → garbage forger, s2 → replay attacker]")
			}
			v := types.Value(fmt.Sprintf("v%d", i))
			id := h.Invoke(types.Writer, checker.OpWrite, v)
			if err := w.Write(v); err != nil {
				log.Fatalf("write: %v", err)
			}
			h.Respond(id, types.Bottom)
		}
	}()
	const readers = 3
	for r := 1; r <= readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := core.NewReader(mux.Client(types.Reader(r), 0), th, r, readers)
			for i := 0; i < 4; i++ {
				id := h.Invoke(types.Reader(r), checker.OpRead, types.Bottom)
				v, err := rd.Read()
				if err != nil {
					log.Fatalf("read: %v", err)
				}
				h.Respond(id, v)
			}
		}()
	}
	wg.Wait()

	fmt.Printf("history: %d operations recorded\n", h.Len())
	if err := checker.CheckAtomic(h); err != nil {
		log.Fatalf("ATOMICITY VIOLATED: %v", err)
	}
	fmt.Println("atomicity properties (1)-(4) verified over the full concurrent history ✓")
}
