// cloudkv is the paper's motivating scenario (Section 1.1): a cloud
// key-value store whose read/write API is backed by robust atomic storage,
// so clients get strong consistency without trusting any single storage
// node — up to t of the 3t+1 nodes may be arbitrarily corrupt.
//
// The demo uses the library's sharded Store layer: keys are hashed onto 8
// independent multi-writer atomic registers hosted on the same 4 objects,
// so an order-tracking workload over many keys runs with per-key atomicity
// while one storage node serves garbage. (Separate processes can write the
// same keys concurrently by Connecting with distinct WriterIDs; see
// DESIGN.md "Multi-writer registers".)
package main

import (
	"fmt"
	"log"

	"robustatomic"
)

func main() {
	cluster, err := robustatomic.NewCluster(robustatomic.Options{
		Faults:  1,
		Readers: 2,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	kv, err := cluster.NewStore(robustatomic.StoreOptions{Shards: 8})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cloud KV store over robust atomic storage (t=1, S=4, 8 shards)")

	// A fleet of orders progresses through states; order:7 is tracked in
	// detail. Each key is an independent atomic register projection.
	orders := []string{"order:7", "order:13", "order:42", "order:99"}
	states := []string{"placed", "paid", "shipped", "delivered"}
	for i, st := range states {
		for _, o := range orders {
			if err := kv.Put(o, st); err != nil {
				log.Fatal(err)
			}
		}
		got, err := kv.Get("order:7")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  put %d orders=%q → get order:7 %q (shard %d)\n", len(orders), st, got, kv.ShardOf("order:7"))
		if got != st {
			log.Fatalf("consistency violation: wrote %q read %q", st, got)
		}
		if i == 1 {
			// Midway, one storage node turns Byzantine and fabricates
			// replies; per-key atomicity must hold regardless.
			if err := cluster.InjectFault(2, "garbage"); err != nil {
				log.Fatal(err)
			}
			fmt.Println("  [node s2 is now Byzantine: fabricating replies on every shard]")
		}
	}
	for _, o := range orders {
		got, err := kv.Get(o)
		if err != nil {
			log.Fatal(err)
		}
		if got != "delivered" {
			log.Fatalf("consistency violation: %s = %q", o, got)
		}
	}
	fmt.Println("all keys on all shards read the latest completed write — atomic despite the corrupt node")
}
