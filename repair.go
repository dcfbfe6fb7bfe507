package robustatomic

import (
	"fmt"

	"robustatomic/internal/types"
)

// RepairedRegister reports the outcome of repairing one register instance.
type RepairedRegister struct {
	// Reg is the wire register instance (0 = the standalone register,
	// 1..Shards = the keyed Store's shards).
	Reg int
	// TS is the timestamp of the pair installed on the replacement object.
	TS types.TS
	// Bytes is the size of the installed value.
	Bytes int
	// Skipped reports an instance that was never written (nothing to
	// install; a blank register is its correct state).
	Skipped bool
}

// Repair reconstitutes a blank replacement object from its live peers, in
// the style of RADON's repairable atomic storage: for every register
// instance up to shards (instance 0 plus one per Store shard) it performs a
// full atomic read against the cluster — which tolerates the blank object
// and up to t liars among the rest — and installs the certified result
// directly into object id's register via the protocol's own write-back
// messages. The installed state is exactly what a correct object that
// missed every message would be brought to by an honest reader's
// write-back, so safety is untouched; what repair restores is the fault
// budget: the replacement again certifies the current value, so the
// deployment survives a further t failures.
//
// Run it after replacing a dead machine with a blank one on the old address.
// Its reads run as this
// process's reader identity (WriterID+1), like Join's and Move's: run it from
// an operator process with a WriterID of its own, or while this handle's
// Store is not reading — other processes may keep operating. Re-running it
// is harmless: objects merge state monotonically, so a repeated or stale
// install is a no-op.
func (c *Cluster) Repair(id int, shards int) ([]RepairedRegister, error) {
	addr, err := c.objectAddr(id)
	if err != nil {
		return nil, err
	}
	return c.transferRegisters(addr, shards)
}

// objectAddr returns the address of object id in this handle's view of the
// active configuration.
func (c *Cluster) objectAddr(id int) (string, error) {
	addrs := c.mux.Addrs()
	if id < 1 || id > len(addrs) {
		return "", fmt.Errorf("robustatomic: object id %d out of 1..%d", id, len(addrs))
	}
	if addrs[id-1] == "" {
		return "", fmt.Errorf("robustatomic: slot %d is vacant in the active configuration", id)
	}
	return addrs[id-1], nil
}
