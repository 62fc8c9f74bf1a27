package atm

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Routed fabrics: multi-switch ATM topologies with on-demand VC setup.
//
// The paper's testbed is two hosts on one fiber; scaling its workloads to
// thousands of hosts needs a switched fabric, and building that fabric
// eagerly costs O(hosts²) VC state — the reason large topologies used to
// exhaust memory before simulating a single cell. A Fabric instead keeps
// only a routing view of the topology (which switch and port each host
// sits on) and installs a flow's VC path through the switches the first
// time a datagram heads to that destination, via the driver's SetupVC
// hook. Signaling is modeled as instantaneous, so the lazily built
// fabric is event-for-event identical to an eagerly meshed one; what
// changes is that memory follows *active* communication pairs.

// FabricKind selects the switch arrangement of a routed fabric.
type FabricKind int

const (
	// FabricHub is a single switch with every host attached — the
	// classic hub-and-spoke building network, and the shape whose
	// single-switch behaviour must stay bit-identical to the old eager
	// mesh.
	FabricHub FabricKind = iota
	// FabricFatTree is a two-level tree: hosts attach to leaf switches
	// (LeafPorts per leaf), and every leaf trunks to one spine switch.
	// Cross-leaf flows traverse leaf → spine → leaf and contend for the
	// trunk links, as in a building backbone.
	FabricFatTree
)

// String names the fabric kind for labels and errors.
func (k FabricKind) String() string {
	switch k {
	case FabricHub:
		return "hub"
	case FabricFatTree:
		return "fattree"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

// DefaultLeafPorts is the fat-tree hosts-per-leaf when the caller does
// not choose one: the port count of a mid-90s workgroup ATM switch.
const DefaultLeafPorts = 64

// flowKey identifies a unidirectional host-to-host flow by host index.
type flowKey struct{ src, dst int }

// hop is one switch VC entry on a flow's path, with the allocator to
// refund when the path is torn down (nil for fixed host-link VCIs).
type hop struct {
	sw    *Switch
	port  int
	vci   uint16
	alloc *vciAlloc
}

// route is an installed flow path: the VCI the source host transmits on,
// the VCI the destination host receives on (naming the source, as the
// legacy mesh did), and the switch entries in path order.
type route struct {
	txVCI uint16
	rxVCI uint16
	hops  []hop
}

// fabricHost locates one host in the fabric.
type fabricHost struct {
	drv  *Driver
	sw   *Switch
	leaf int // leaf index, or -1 on a hub
	port int // host's port on sw
}

// Fabric is a routed multi-switch topology over a set of host drivers.
// It owns the switches, knows where every host attaches, and serves the
// drivers' SetupVC/TeardownVC hooks: VC paths through the switches exist
// only for flows that have actually carried traffic.
type Fabric struct {
	Kind FabricKind
	// Core is the single switch of a hub fabric or the spine of a
	// fat tree; Leaves are the fat tree's leaf switches (nil for a hub).
	Core   *Switch
	Leaves []*Switch

	hosts  []fabricHost
	byAddr map[uint32]int

	// leafUp[i] is leaf i's trunk port toward the spine; coreDown[i] is
	// the spine's port toward leaf i.
	leafUp   []int
	coreDown []int

	// routes remembers every installed flow path. It survives testbed
	// Reset — routing is topology once installed — which makes setup
	// idempotent: a driver whose on-demand transmit state was dropped by
	// Reset re-requests the path and gets the existing one back, with no
	// switch-table or VCI-allocator churn.
	routes map[flowKey]*route

	// VCsSetUp and VCsTornDown count path installs and reclaims.
	VCsSetUp    int64
	VCsTornDown int64
}

// NewFabric builds the switches for kind, attaches every driver's
// adapter, and wires the drivers' on-demand VC hooks. leafPorts only
// matters for FabricFatTree; zero means DefaultLeafPorts. The model
// prices the trunk links (host links are priced by each adapter's own
// cost model, as always).
func NewFabric(env *sim.Env, kind FabricKind, model *cost.Model, leafPorts int, drvs []*Driver) *Fabric {
	f := &Fabric{
		Kind:   kind,
		hosts:  make([]fabricHost, len(drvs)),
		byAddr: make(map[uint32]int, len(drvs)),
		routes: make(map[flowKey]*route),
	}
	switch kind {
	case FabricHub:
		f.Core = NewSwitch(env)
		for i, d := range drvs {
			port := f.Core.AttachPort(d.Adapter)
			f.hosts[i] = fabricHost{drv: d, sw: f.Core, leaf: -1, port: port}
		}
	case FabricFatTree:
		if leafPorts <= 0 {
			leafPorts = DefaultLeafPorts
		}
		f.Core = NewSwitch(env)
		nLeaves := (len(drvs) + leafPorts - 1) / leafPorts
		f.Leaves = make([]*Switch, nLeaves)
		f.leafUp = make([]int, nLeaves)
		f.coreDown = make([]int, nLeaves)
		for li := range f.Leaves {
			leaf := NewSwitch(env)
			f.Leaves[li] = leaf
			for i := li * leafPorts; i < (li+1)*leafPorts && i < len(drvs); i++ {
				port := leaf.AttachPort(drvs[i].Adapter)
				f.hosts[i] = fabricHost{drv: drvs[i], sw: leaf, leaf: li, port: port}
			}
			f.leafUp[li], f.coreDown[li] = ConnectTrunk(leaf, f.Core, model)
		}
	default:
		panic(fmt.Sprintf("atm: unknown fabric kind %d", int(kind)))
	}
	for i, d := range drvs {
		i := i // pre-1.22 loop-variable capture
		f.byAddr[d.IP.Addr] = i
		d.SetupVC = func(dst uint32) (uint16, bool) { return f.setup(i, dst) }
		d.TeardownVC = func(dst uint32) { f.teardown(i, dst) }
	}
	return f
}

// NumHosts returns how many hosts the fabric serves.
func (f *Fabric) NumHosts() int { return len(f.hosts) }

// NumRoutes returns how many flow paths are currently installed — the
// fabric-wide measure of active communication pairs.
func (f *Fabric) NumRoutes() int { return len(f.routes) }

// TotalVCs sums the VC table entries across every switch in the fabric.
func (f *Fabric) TotalVCs() int {
	n := f.Core.NumVCs()
	for _, leaf := range f.Leaves {
		n += leaf.NumVCs()
	}
	return n
}

// Reset rewinds every switch for testbed reuse. Installed routes
// survive (see the routes field).
func (f *Fabric) Reset() {
	f.Core.Reset()
	for _, leaf := range f.Leaves {
		leaf.Reset()
	}
	f.VCsSetUp, f.VCsTornDown = 0, 0
}

// setup installs (or finds) the VC path from host src to the host owning
// dstAddr and returns the VCI src transmits on. Host-facing links keep
// the legacy source-naming convention — src transmits on DefaultVCI+dst,
// the destination receives on DefaultVCI+src — so a hub fabric's wire
// bytes are byte-identical to the old eager mesh. Trunk hops use
// per-link allocated VCIs, invisible to hosts.
func (f *Fabric) setup(src int, dstAddr uint32) (uint16, bool) {
	dst, ok := f.byAddr[dstAddr]
	if !ok || dst == src {
		return 0, false
	}
	key := flowKey{src, dst}
	if rt, ok := f.routes[key]; ok {
		return rt.txVCI, true
	}
	hs, hd := &f.hosts[src], &f.hosts[dst]
	rt := &route{
		txVCI: DefaultVCI + uint16(dst),
		rxVCI: DefaultVCI + uint16(src),
	}
	if hs.sw == hd.sw {
		// Same switch (hub, or two hosts on one leaf): a single entry.
		hs.sw.AddVC(hs.port, rt.txVCI, hd.port, rt.rxVCI)
		rt.hops = []hop{{sw: hs.sw, port: hs.port, vci: rt.txVCI}}
	} else {
		// Cross-leaf: leaf(src) → spine → leaf(dst), one allocated VCI
		// per trunk hop (the reassembler demultiplexes on VCI alone, so
		// flows sharing a trunk cannot share one).
		up, down := f.leafUp[hs.leaf], f.coreDown[hd.leaf]
		upAlloc := hs.sw.ports[up].vci
		downAlloc := f.Core.ports[down].vci
		v1 := upAlloc.get()
		v2 := downAlloc.get()
		hs.sw.AddVC(hs.port, rt.txVCI, up, v1)
		f.Core.AddVC(f.coreDown[hs.leaf], v1, down, v2)
		hd.sw.AddVC(f.leafUp[hd.leaf], v2, hd.port, rt.rxVCI)
		rt.hops = []hop{
			{sw: hs.sw, port: hs.port, vci: rt.txVCI},
			{sw: f.Core, port: f.coreDown[hs.leaf], vci: v1, alloc: upAlloc},
			{sw: hd.sw, port: f.leafUp[hd.leaf], vci: v2, alloc: downAlloc},
		}
	}
	f.routes[key] = rt
	f.VCsSetUp++
	return rt.txVCI, true
}

// teardown removes the flow path from host src to the host owning
// dstAddr: every switch entry goes away, trunk VCIs return to their
// links' pools, and the destination's reassembly context is reclaimed
// (unless a datagram is mid-flight on it, in which case the context
// stays until the channel is next reclaimed). Cells still crossing the
// fabric on the torn-down path are discarded as unrouted — reclamation
// under TxVCLimit is deliberately the behaviour of a real switched
// network reprovisioning a channel, and transports recover by
// retransmitting (which re-installs the path).
func (f *Fabric) teardown(src int, dstAddr uint32) {
	dst, ok := f.byAddr[dstAddr]
	if !ok {
		return
	}
	key := flowKey{src, dst}
	rt, ok := f.routes[key]
	if !ok {
		return
	}
	f.removeRoute(key, rt)
}

// removeRoute is teardown's working half, shared with port-failure
// reclamation: remove every switch entry, refund trunk VCIs, reclaim the
// destination's reassembly context, forget the route.
func (f *Fabric) removeRoute(key flowKey, rt *route) {
	for _, h := range rt.hops {
		h.sw.RemoveVC(h.port, h.vci)
		if h.alloc != nil {
			h.alloc.put(h.vci)
		}
	}
	f.hosts[key.dst].drv.DropRx(rt.rxVCI)
	delete(f.routes, key)
	f.VCsTornDown++
}

// HostPort returns host i's access port on its switch (the hub core or
// its fat-tree leaf).
func (f *Fabric) HostPort(i int) *Port {
	h := &f.hosts[i]
	return h.sw.ports[h.port]
}

// FailHostPort fails host i's switch access port (fault injection): the
// port goes down, and every installed VC path with i as source or
// destination is torn down — switch entries removed, trunk VCIs
// refunded — exactly as idle-VC reclamation would. Peers recover through
// the same on-demand machinery: their next retransmission re-requests
// the path via SetupVC and gets a fresh install once the port is
// restored.
func (f *Fabric) FailHostPort(i int) {
	f.HostPort(i).SetDown(true)
	keys := make([]flowKey, 0, 8)
	for k := range f.routes {
		if k.src == i || k.dst == i {
			keys = append(keys, k)
		}
	}
	// Map iteration order is random; reclaim in canonical order so VCI
	// pool refunds (and thus later allocations) stay deterministic.
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		return keys[a].dst < keys[b].dst
	})
	for _, k := range keys {
		f.removeRoute(k, f.routes[k])
	}
}

// RestoreHostPort brings a failed access port back; torn-down paths
// reinstall on demand when traffic next flows.
func (f *Fabric) RestoreHostPort(i int) {
	f.HostPort(i).SetDown(false)
}
