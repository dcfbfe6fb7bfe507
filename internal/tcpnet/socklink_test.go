package tcpnet

import (
	"fmt"

	"robustatomic/internal/types"
)

// direct returns a Direct to the daemon at addr, sending as from.
func direct(addr string, from types.ProcID) *Direct { return NewMux(nil).Direct(addr, from) }

// socks returns the socket link of a mux over daemons (white-box tests reach
// its connection table and dial state through it).
func socks(m *Mux) *sockLink { return m.link.(*sockLink) }

// dropConn tears down the connection to object sid, failing all of its
// in-flight waiters with ErrConnLost immediately. The dial state resets so
// the next round redials synchronously (the peer is probably still up).
func (m *Mux) dropConn(sid int) {
	l := socks(m)
	l.mu.Lock()
	mc := l.conns[sid-1]
	l.mu.Unlock()
	if mc != nil {
		l.teardown(mc, fmt.Errorf("%w (s%d dropped)", ErrConnLost, sid))
	}
}

// pendingWaiters counts in-flight waiters across all connections (leak
// assertions); a link that keeps no table has none.
func (m *Mux) pendingWaiters() int {
	l, ok := m.link.(*sockLink)
	if !ok {
		return 0
	}
	l.mu.Lock()
	conns := append([]*muxConn(nil), l.conns...)
	l.mu.Unlock()
	total := 0
	for _, mc := range conns {
		if mc == nil {
			continue
		}
		mc.mu.Lock()
		total += len(mc.waiters)
		mc.mu.Unlock()
	}
	return total
}
