// Package scp models the SSH/SCP file transfers of §V-C1: an
// authenticated control handshake followed by a bulk streamed copy whose
// client-side progress (bytes on local disk over time) is the quantity
// Figure 6 plots across a server migration.
package scp

import (
	"fmt"

	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/vip"
)

// Port is the SSH service port.
const Port = 22

// chunkSize is the stream transfer unit.
const chunkSize = 32 << 10

// control messages.
type authReq struct{ User string }
type authOK struct{}
type getReq struct{ Path string }
type fileHdr struct {
	OK   bool
	Size int64
}
type fileChunk struct{ Last bool }

// Server serves files over the virtual network.
type Server struct {
	files map[string]int64
	// Transfers counts completed full-file sends.
	Transfers int
}

// NewServer starts an SCP/SSH server on the stack.
func NewServer(stack *vip.Stack) (*Server, error) {
	s := &Server{files: make(map[string]int64)}
	err := stack.ListenTCP(Port, func(c *vip.Conn) {
		c.OnMessage(func(size int, msg any) {
			switch m := msg.(type) {
			case authReq:
				c.Send(64, authOK{})
			case getReq:
				sz, ok := s.files[m.Path]
				c.Send(128, fileHdr{OK: ok, Size: sz})
				if !ok {
					return
				}
				for off := int64(0); off < sz; off += chunkSize {
					n := int64(chunkSize)
					last := false
					if off+n >= sz {
						n = sz - off
						last = true
					}
					c.Send(int(n), fileChunk{Last: last})
				}
				s.Transfers++
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("scp: %w", err)
	}
	return s, nil
}

// Put registers a file of the given size.
func (s *Server) Put(path string, size int64) { s.files[path] = size }

// Transfer is one client-side download in progress.
type Transfer struct {
	// Progress records (seconds, bytes-received) samples — the Figure 6
	// series.
	Progress metrics.Series
	// Received is the byte count on the client's local disk.
	Received int64
	// Size is the total expected, known after the header arrives.
	Size int64
	// Done reports completion; Err any transport failure.
	Done bool
	Err  error

	onDone func(err error)
}

// Fetch starts downloading path from the server, sampling progress every
// sampleEvery of virtual time. onDone may be nil.
func Fetch(stack *vip.Stack, server vip.IP, path string, sampleEvery sim.Duration, onDone func(err error)) *Transfer {
	t := &Transfer{onDone: onDone}
	t.Progress.Name = "bytes"
	s := stack.Sim()
	conn := stack.DialTCP(server, Port)
	conn.OnConnect(func() {
		conn.Send(128, authReq{User: "wow"})
	})
	conn.OnMessage(func(size int, msg any) {
		switch m := msg.(type) {
		case authOK:
			conn.Send(96, getReq{Path: path})
		case fileHdr:
			if !m.OK {
				t.finish(fmt.Errorf("scp: no such file %q", path))
				return
			}
			t.Size = m.Size
		case fileChunk:
			t.Received += int64(size)
			if m.Last {
				t.finish(nil)
			}
		}
	})
	conn.OnClose(func(err error) {
		if !t.Done {
			if err == nil {
				err = vip.ErrReset
			}
			t.finish(err)
		}
	})
	if sampleEvery > 0 {
		var tick *sim.Ticker
		tick = s.Tick(sampleEvery, 0, func() {
			t.Progress.Append(s.Now().Seconds(), float64(t.Received))
			if t.Done {
				tick.Stop()
			}
		})
	}
	return t
}

func (t *Transfer) finish(err error) {
	if t.Done {
		return
	}
	t.Done = true
	t.Err = err
	if t.onDone != nil {
		t.onDone(err)
	}
}
