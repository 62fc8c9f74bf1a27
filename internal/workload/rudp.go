// Reliable-UDP transport for the fan-in workload: the same
// request/response pattern as the TCP path, carried by internal/rudp's
// message stream instead of a TCP byte stream. The frames mirror their
// TCP counterparts one for one — accept loop, per-connection echo
// server, client exchange loop — so a TCP-vs-rUDP comparison at equal
// load isolates the transports, not the harness.
package workload

import (
	"bytes"
	"fmt"

	"repro/internal/lab"
	"repro/internal/rudp"
	"repro/internal/sim"
)

// TransportTCP and TransportRUDP name FanIn.Transport values.
const (
	TransportTCP  = "tcp"
	TransportRUDP = "rudp"
)

// checkTransport validates a FanIn transport selection against the
// message-size cap (one rudp message rides one datagram).
func checkTransport(transport string, size int) error {
	switch transport {
	case "", TransportTCP:
		return nil
	case TransportRUDP:
		if size > rudp.MaxMessage {
			return fmt.Errorf("workload: rudp transport caps messages at %d bytes, got %d",
				rudp.MaxMessage, size)
		}
		return nil
	}
	return fmt.Errorf("workload: unknown transport %q (tcp, rudp)", transport)
}

// rudpAcceptLoopFrame accepts n rudp connections, spawning an echo
// server for each.
type rudpAcceptLoopFrame struct {
	e   *rudp.Endpoint
	env *sim.Env
	n   int

	pc int
	i  int
	op *rudp.AcceptOp
}

// Step drives the accept loop.
func (f *rudpAcceptLoopFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // accept the next connection
			if f.i >= f.n {
				p.Return()
				return
			}
			f.pc = 1
			f.op = f.e.Accept(p)
			return
		case 1: // spawn its echo server
			if f.op.Err != nil {
				// The endpoint died under the accept (host crash); the
				// restart supervisor spawns the successor loop.
				p.Return()
				return
			}
			c := f.op.C
			f.op = nil
			f.env.Spawn(fmt.Sprintf("server.fanin.rconn%d", f.i),
				&rudpServeEchoFrame{c: c})
			f.i++
			f.pc = 0
		}
	}
}

// rudpServeEchoFrame echoes each message back until the client's fin.
type rudpServeEchoFrame struct {
	c *rudp.Conn

	pc   int
	buf  []byte
	n    int
	recv *rudp.RecvOp
	send *rudp.SendOp
}

// Step drives the echo handler.
func (f *rudpServeEchoFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // read the next message
			if f.buf == nil {
				f.buf = make([]byte, rudp.MaxMessage)
			}
			f.pc = 1
			f.recv = f.c.Recv(p, f.buf)
			return
		case 1: // echo it back, or close at end of stream
			if f.recv.Err != nil || f.recv.N == 0 {
				f.pc = 3
				f.c.Close(p)
				return
			}
			f.n = f.recv.N
			f.recv = nil
			f.pc = 2
			f.send = f.c.Send(p, f.buf[:f.n])
			return
		case 2: // next message, unless the send failed
			if f.send.Err != nil {
				p.Return()
				return
			}
			f.send = nil
			f.pc = 0
		case 3: // closed; done
			p.Return()
			return
		}
	}
}

// rudpFanInClientFrame is one fan-in client on the rudp transport:
// stagger, dial, warm+reqs message exchanges, close.
type rudpFanInClientFrame struct {
	host             *lab.Host
	ci               int
	size, warm, reqs int
	startAt          sim.Time
	sink             *latSink
	last             *sim.Time
	r                *Result
	fail             func(error)

	pc       int
	c        *rudp.Conn
	msg, buf []byte
	i        int
	start    sim.Time
	send     *rudp.SendOp
	recv     *rudp.RecvOp
}

// Step drives the client.
func (f *rudpFanInClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // wait for the stagger slot
			f.pc = 1
			if f.startAt > 0 && !p.SleepUntil(f.startAt) {
				return
			}
		case 1: // dial and prepare buffers
			c, err := rudp.Dial(f.host.Kern, f.host.UDP, lab.HostAddr(0), Port)
			if err != nil {
				f.fail(err)
				p.Return()
				return
			}
			f.c = c
			f.msg = make([]byte, f.size)
			p.Env().RNG().Fill(f.msg)
			f.buf = make([]byte, rudp.MaxMessage)
			f.pc = 2
		case 2: // request loop head: send
			if f.i >= f.warm+f.reqs {
				f.pc = 5
				f.c.Close(p)
				return
			}
			f.start = p.Env().Now()
			f.pc = 3
			f.send = f.c.Send(p, f.msg)
			return
		case 3: // sent; read the response message
			if f.send.Err != nil {
				f.fail(fmt.Errorf("client %d request %d: %w", f.ci, f.i, f.send.Err))
				p.Return()
				return
			}
			f.send = nil
			f.pc = 4
			f.recv = f.c.Recv(p, f.buf)
			return
		case 4: // fold in one exchange's result
			if f.recv.Err != nil {
				f.fail(fmt.Errorf("client %d request %d: %w", f.ci, f.i, f.recv.Err))
				p.Return()
				return
			}
			if f.recv.N != f.size {
				f.fail(fmt.Errorf("client %d request %d: %d-byte response, want %d",
					f.ci, f.i, f.recv.N, f.size))
				p.Return()
				return
			}
			f.recv = nil
			if f.i >= f.warm {
				now := p.Env().Now()
				f.sink.record(f.ci, now-f.start)
				if now > *f.last {
					*f.last = now
				}
				if !bytes.Equal(f.buf[:f.size], f.msg) {
					f.r.Errors++
				}
			}
			f.i++
			f.pc = 2
		case 5: // closed; done
			p.Return()
			return
		}
	}
}
