// Package nfs provides the network file system the paper's PBS jobs mount
// from the head node: MEME jobs "read and write input and output files to
// an NFS file system mounted from the head node" (§V-D1), and the migrated
// PBS job of Figure 7 "committed its output data to the NFS-mounted home
// directory" after resuming.
//
// File content is synthetic — only names and sizes are tracked — but every
// read and write moves its full byte count through the virtual TCP
// transport, so NFS traffic competes for overlay path capacity exactly as
// the real protocol did on the testbed.
package nfs

import (
	"fmt"

	"wow/internal/middleware/rpc"
	"wow/internal/vip"
)

// Port is the NFS service port.
const Port = 2049

// request ops.
type readReq struct {
	Path   string
	Offset int64
	Count  int64
}
type writeReq struct {
	Path  string
	Count int64 // bytes appended
}

type readRsp struct {
	OK    bool
	Count int64
}
type writeRsp struct {
	OK   bool
	Size int64 // file size after write
}

// Server exports a synthetic file tree.
type Server struct {
	files map[string]int64
	// Ops counts served operations by name.
	Ops map[string]int64
}

// NewServer creates an NFS server on the stack (typically the PBS head
// node's VM).
func NewServer(stack *vip.Stack) (*Server, error) {
	s := &Server{files: make(map[string]int64), Ops: make(map[string]int64)}
	_, err := rpc.Serve(stack, Port, s.handle)
	if err != nil {
		return nil, fmt.Errorf("nfs: %w", err)
	}
	return s, nil
}

// Put creates or truncates a file of the given size server-side (staging
// input data without network traffic, as a local cp on the head would).
func (s *Server) Put(path string, size int64) { s.files[path] = size }

// Size returns a file's size and whether it exists.
func (s *Server) Size(path string) (int64, bool) {
	sz, ok := s.files[path]
	return sz, ok
}

func (s *Server) handle(client vip.IP, body any, reply func(any, int)) {
	switch req := body.(type) {
	case readReq:
		s.Ops["read"]++
		sz, ok := s.files[req.Path]
		if !ok || req.Offset >= sz {
			reply(readRsp{OK: ok && req.Offset == sz, Count: 0}, 64)
			return
		}
		n := req.Count
		if req.Offset+n > sz {
			n = sz - req.Offset
		}
		// The response carries the data: its wire size is the read
		// count.
		reply(readRsp{OK: true, Count: n}, int(n)+64)
	case writeReq:
		s.Ops["write"]++
		s.files[req.Path] += req.Count
		reply(writeRsp{OK: true, Size: s.files[req.Path]}, 64)
	default:
		reply(nil, 16)
	}
}

// Client is a mounted NFS view, held by each worker VM.
type Client struct {
	rpc *rpc.Client
	// BlockSize is the transfer unit (rsize/wsize); NFSv3's common 32 KB
	// default.
	BlockSize int64
}

// Mount connects a client stack to the server.
func Mount(stack *vip.Stack, server vip.IP) *Client {
	return &Client{rpc: rpc.Dial(stack, server, Port), BlockSize: 32 << 10}
}

// ReadFile streams an entire file block by block; cb reports the bytes
// actually transferred and whether the file existed. Transfer time is
// dominated by the virtual network path — the quantity the shortcut
// experiments measure.
func (c *Client) ReadFile(path string, cb func(ok bool, bytes int64)) {
	var total int64
	var step func(offset int64)
	step = func(offset int64) {
		c.rpc.Call(readReq{Path: path, Offset: offset, Count: c.BlockSize}, 96, func(resp any) {
			r, k := resp.(readRsp)
			if !k || !r.OK && total == 0 {
				cb(false, total)
				return
			}
			total += r.Count
			if r.Count < c.BlockSize {
				cb(true, total)
				return
			}
			step(offset + r.Count)
		})
	}
	step(0)
}

// WriteFile appends size bytes block by block; cb reports success. Each
// block's request carries its payload through the transport.
func (c *Client) WriteFile(path string, size int64, cb func(ok bool)) {
	var step func(written int64)
	step = func(written int64) {
		if written >= size {
			cb(true)
			return
		}
		n := c.BlockSize
		if written+n > size {
			n = size - written
		}
		c.rpc.Call(writeReq{Path: path, Count: n}, int(n)+96, func(resp any) {
			if _, k := resp.(writeRsp); !k {
				cb(false)
				return
			}
			step(written + n)
		})
	}
	step(0)
}
