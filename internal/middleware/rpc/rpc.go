// Package rpc is a minimal request/response layer over the virtual TCP
// transport, used by the cluster middleware (PBS, NFS, PVM) that runs
// unmodified inside WOW guests. One client keeps one persistent connection
// to a server; requests and responses are framed as TCP-lite messages and
// therefore inherit all transport dynamics — window limits, loss recovery,
// and patience across migration outages.
package rpc

import (
	"fmt"
	"slices"

	"wow/internal/vip"
)

// envelope frames one RPC message on the wire.
type envelope struct {
	ID    uint64
	IsRsp bool
	Body  any
}

// Handler services one request and must call reply exactly once (possibly
// later, asynchronously). respSize is the response payload size in bytes.
type Handler func(client vip.IP, body any, reply func(resp any, respSize int))

// Server accepts RPC connections on a port.
type Server struct {
	handler Handler
}

// Serve starts an RPC server on the stack's port.
func Serve(stack *vip.Stack, port uint16, h Handler) (*Server, error) {
	s := &Server{handler: h}
	err := stack.ListenTCP(port, func(c *vip.Conn) {
		c.OnMessage(func(size int, msg any) {
			env, ok := msg.(envelope)
			if !ok || env.IsRsp {
				return
			}
			id := env.ID
			s.handler(c.RemoteIP(), env.Body, func(resp any, respSize int) {
				// Connection may have died while the handler
				// worked; Send then reports closed, which is
				// fine — the client will retry or has gone.
				_ = c.Send(respSize, envelope{ID: id, IsRsp: true, Body: resp})
			})
		})
	})
	if err != nil {
		return nil, fmt.Errorf("rpc: %w", err)
	}
	return s, nil
}

// Client multiplexes requests over one persistent connection.
type Client struct {
	stack  *vip.Stack
	server vip.IP
	port   uint16
	conn   *vip.Conn
	nextID uint64
	// pending holds the calls awaiting a response, in call order.
	pending []call
	closed  bool
}

// call is one request awaiting its response.
type call struct {
	id uint64
	cb func(any)
}

// Dial creates a client to server:port. The underlying connection is
// established lazily and re-dialed after transport failures.
func Dial(stack *vip.Stack, server vip.IP, port uint16) *Client {
	return &Client{stack: stack, server: server, port: port}
}

// take removes the pending call id and returns its callback, or nil.
func (c *Client) take(id uint64) func(any) {
	i := slices.IndexFunc(c.pending, func(p call) bool { return p.id == id })
	if i < 0 {
		return nil
	}
	cb := c.pending[i].cb
	c.pending = slices.Delete(c.pending, i, i+1)
	return cb
}

// failPending fails the pending calls in call order. A call made from one
// of their callbacks is pending afresh and is not failed here.
func (c *Client) failPending() {
	failed := c.pending
	c.pending = nil
	for _, p := range failed {
		p.cb(nil)
	}
}

func (c *Client) ensureConn() {
	if c.conn != nil && !c.conn.Closed() {
		return
	}
	conn := c.stack.DialTCP(c.server, c.port)
	conn.OnMessage(func(size int, msg any) {
		env, ok := msg.(envelope)
		if !ok || !env.IsRsp {
			return
		}
		if cb := c.take(env.ID); cb != nil {
			cb(env.Body)
		}
	})
	conn.OnClose(func(err error) {
		if c.conn == conn {
			c.conn = nil
		}
		if err != nil {
			// Fail all pending calls; callers decide to retry.
			c.failPending()
		}
	})
	c.conn = conn
}

// Call sends one request of reqSize payload bytes; cb fires with the
// response body, or nil if the transport failed.
func (c *Client) Call(req any, reqSize int, cb func(resp any)) {
	if c.closed {
		cb(nil)
		return
	}
	c.ensureConn()
	c.nextID++
	id := c.nextID
	c.pending = append(c.pending, call{id, cb})
	if err := c.conn.Send(reqSize, envelope{ID: id, Body: req}); err != nil {
		c.take(id)
		cb(nil)
	}
}

// Close tears the client down; pending calls get nil responses.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.failPending()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
