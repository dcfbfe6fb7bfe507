package robustatomic

import (
	"testing"

	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// fabric is where a test's objects live — real daemons on loopback sockets, or
// objects of this process behind the in-memory link — and how they are made,
// killed and replaced there. Membership, repair and the operator's tools are
// the same calls on every link, so one test body runs over both (eachFabric),
// with clients in parallel and -race watching.
type fabric struct {
	addrs []string // the bootstrap configuration, objects 1..S
	// connect returns a client process holding the bootstrap address list.
	connect func(Options) *Cluster
	// host returns the object now serving addr, for fault injection.
	host func(addr string) *server.Host
	// fresh starts a blank object to serve as object id on a new address.
	fresh func(id int) (addr string)
	// kill stops the object at addr for good.
	kill func(addr string)
	// blank replaces the machine at addr: the object there dies with all it
	// held, once the clients' transports have seen it go, and a blank one to
	// serve as object id comes up on its address.
	blank func(addr string, id int)
}

// hosts returns the objects of the bootstrap configuration.
func (f *fabric) hosts() []*server.Host {
	hs := make([]*server.Host, len(f.addrs))
	for i, a := range f.addrs {
		hs[i] = f.host(a)
	}
	return hs
}

// direct returns an operator's channel to the one object at addr.
func (f *fabric) direct(c *Cluster, addr string) *tcpnet.Direct {
	return c.mux.Direct(addr, types.Reader(1))
}

// eachFabric runs body over an n-object cluster on sockets and in memory.
func eachFabric(t *testing.T, n int, body func(t *testing.T, f *fabric)) {
	client := func(t *testing.T, c *Cluster, err error) *Cluster {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	t.Run("sockets", func(t *testing.T) {
		servers := map[string]*tcpnet.Server{}
		start := func(id int, addr string) string {
			s := restartDaemon(t, id, addr, tcpnet.ServerOptions{}) // volatile: a wipe is total
			t.Cleanup(s.Close)
			servers[s.Addr()] = s
			return s.Addr()
		}
		f := &fabric{
			host:  func(addr string) *server.Host { return servers[addr].Host },
			fresh: func(id int) string { return start(id, "127.0.0.1:0") },
			kill:  func(addr string) { servers[addr].Close() },
		}
		f.connect = func(o Options) *Cluster {
			c, err := Connect(f.addrs, o)
			return client(t, c, err)
		}
		f.blank = func(addr string, id int) {
			// A transport redials an object only after its read loop saw the
			// old connection die; what it sends in between goes down the dead
			// socket, and the replacement would miss it.
			lost := counterDelta("tcpnet_conn_lost_total")
			f.kill(addr)
			waitUntil(t, "a client to notice the connection die", func() bool { return lost() > 0 })
			start(id, addr)
		}
		for id := 1; id <= n; id++ {
			f.addrs = append(f.addrs, f.fresh(id))
		}
		body(t, f)
	})
	t.Run("memory", func(t *testing.T) {
		th, err := quorum.NewThresholds(n, (n-1)/3)
		if err != nil {
			t.Fatal(err)
		}
		reg := new(tcpnet.Registry)
		addrs := reg.Add(server.NewHosts(n)...)
		d := deployment{th: th, addrs: addrs, reg: reg, dial: func() *tcpnet.Mux { return tcpnet.NewLinkMux(len(addrs), reg.Link(addrs)) }}
		newHost := func(id int) *server.Host {
			h, _ := server.NewHost(id, nil)
			return h
		}
		body(t, &fabric{
			addrs: addrs,
			connect: func(o Options) *Cluster {
				o.defaults()
				c, err := newCluster(o, d)
				return client(t, c, err)
			},
			host:  func(addr string) *server.Host { return reg.Resolve(addr).Load() },
			fresh: func(id int) string { return reg.Add(newHost(id))[0] },
			kill:  func(addr string) { reg.Resolve(addr).Load().SetPartitioned(true) },
			blank: func(addr string, id int) { reg.Resolve(addr).Store(newHost(id)) },
		})
	})
}
