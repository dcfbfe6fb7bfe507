// Quickstart: start an in-process robust atomic storage cluster tolerating
// one Byzantine object, write, read, and show that one injected fault
// changes nothing.
package main

import (
	"fmt"
	"log"

	"robustatomic"
)

func main() {
	cluster, err := robustatomic.NewCluster(robustatomic.Options{
		Faults:  1, // t = 1 → S = 3t+1 = 4 storage objects
		Readers: 2,
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("cluster: %d objects, tolerating %d Byzantine\n", cluster.Objects(), cluster.Faults())

	w := cluster.Writer()
	if err := w.Write("hello, PODC 2011"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("write(\"hello, PODC 2011\") — 2 rounds (the adaptive fast path: uncontended writes pay no discovery)")

	r1, err := cluster.Reader(1)
	if err != nil {
		log.Fatal(err)
	}
	v, err := r1.Read()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reader 1 read %q — 2 rounds (a handle's first read runs both query rounds; 1 after that on a stable register; 4 worst case, optimal per the paper's lower bounds)\n", v)

	// One object turns Byzantine and serves forged garbage; nothing changes
	// for clients.
	if err := cluster.InjectFault(1, "garbage"); err != nil {
		log.Fatal(err)
	}
	if err := w.Write("still fine"); err != nil {
		log.Fatal(err)
	}
	r2, err := cluster.Reader(2)
	if err != nil {
		log.Fatal(err)
	}
	v, err = r2.Read()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after fault injection, reader 2 read %q\n", v)
}
