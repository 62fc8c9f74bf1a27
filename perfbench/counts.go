package main

import (
	"repro/internal/atm"
	"repro/internal/lab"
	"repro/internal/sim"
)

// counts are the simulated work counts of finished trials, read from
// counters the packages already export. They depend only on the seeds,
// never on the host, so two runs of one seed agree exactly.
type counts struct {
	exchanges  int64    // completed measured operations
	payload    int64    // application payload bytes they carried
	simElapsed sim.Time // simulated time of the measured operations

	segsIn, segsOut, fastPath, pcbHits, pcbSearched int64
	retransmits, delayedAcks                        int64

	cellsSent, cellsDropped, geDrops, cellsReordered int64
	cellsSwitched, switchDrops                       int64

	pool poolCounts
}

// poolCounts are the mbuf free-list counters. They depend on what the
// warm testbed a trial lands on recycled before, so they are exact only
// when one worker runs the unit.
type poolCounts struct{ hdrReuses, hdrNews, pageReuses, pageNews int64 }

// addLab adds the counters a finished trial left in its testbed. The
// testbed clears them on its next reset.
func (c *counts) addLab(l *lab.Lab) {
	for _, h := range l.Hosts {
		s := &h.TCP.Stats
		c.segsIn += s.SegsIn
		c.segsOut += s.SegsOut
		c.fastPath += s.FastPathData + s.FastPathAck
		c.pcbHits += s.PCBCacheHits
		c.pcbSearched += s.PCBListSearched
		c.retransmits += s.Retransmits
		c.delayedAcks += s.DelayedAcks
		if a := h.ATMAdapter; a != nil && l.Config.Link == lab.LinkATM {
			c.cellsSent += a.CellsSent
			c.cellsDropped += a.CellsDropped
			c.geDrops += a.GEDrops
			c.cellsReordered += a.CellsReordered
		}
		p := &h.Kern.Pool.PoolStats
		c.pool.hdrReuses += p.HeaderReuses
		c.pool.hdrNews += p.HeaderNews
		c.pool.pageReuses += p.PageReuses
		c.pool.pageNews += p.PageNews
	}
	if f := l.Fabric; f != nil {
		for _, sw := range append([]*atm.Switch{f.Core}, f.Leaves...) {
			c.cellsSwitched += sw.CellsSwitched
			c.switchDrops += sw.CellsDropped
			for i := 0; i < sw.NumPorts(); i++ {
				c.switchDrops += sw.Port(i).DownDrops
			}
		}
	}
}

func (c *counts) add(o counts) {
	c.exchanges += o.exchanges
	c.payload += o.payload
	c.simElapsed += o.simElapsed
	c.segsIn += o.segsIn
	c.segsOut += o.segsOut
	c.fastPath += o.fastPath
	c.pcbHits += o.pcbHits
	c.pcbSearched += o.pcbSearched
	c.retransmits += o.retransmits
	c.delayedAcks += o.delayedAcks
	c.cellsSent += o.cellsSent
	c.cellsDropped += o.cellsDropped
	c.geDrops += o.geDrops
	c.cellsReordered += o.cellsReordered
	c.cellsSwitched += o.cellsSwitched
	c.switchDrops += o.switchDrops
	c.pool.hdrReuses += o.pool.hdrReuses
	c.pool.hdrNews += o.pool.hdrNews
	c.pool.pageReuses += o.pool.pageReuses
	c.pool.pageNews += o.pool.pageNews
}
