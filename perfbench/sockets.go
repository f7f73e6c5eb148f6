package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// sockCounts tallies socket calls at the process's TCP boundary. Client
// connections are counted through the Dial functions the stack hands to
// modules, the manager, the generator and the sink; broker connections
// through the listener given to Broker.Serve. No program code changes.
type sockCounts struct {
	clientWrites, clientBytes, clientReads atomic.Int64
	brokerWrites, brokerReads              atomic.Int64
	brokerFrames                           atomic.Int64
}

type sockSnapshot struct {
	clientWrites, clientBytes, clientReads int64
	brokerWrites, brokerReads              int64
	brokerFrames                           int64
}

func (s *sockCounts) snapshot() sockSnapshot {
	if s == nil {
		return sockSnapshot{}
	}
	return sockSnapshot{
		clientWrites: s.clientWrites.Load(), clientBytes: s.clientBytes.Load(), clientReads: s.clientReads.Load(),
		brokerWrites: s.brokerWrites.Load(), brokerReads: s.brokerReads.Load(),
		brokerFrames: s.brokerFrames.Load(),
	}
}

func (a sockSnapshot) sub(b sockSnapshot) sockSnapshot {
	return sockSnapshot{
		clientWrites: a.clientWrites - b.clientWrites, clientBytes: a.clientBytes - b.clientBytes,
		clientReads: a.clientReads - b.clientReads, brokerWrites: a.brokerWrites - b.brokerWrites,
		brokerReads:  a.brokerReads - b.brokerReads,
		brokerFrames: a.brokerFrames - b.brokerFrames,
	}
}

// clientConn counts one client-side connection's reads and writes.
type clientConn struct {
	net.Conn
	c *sockCounts
}

func (cc *clientConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.clientReads.Add(1)
	return n, err
}

func (cc *clientConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.clientWrites.Add(1)
	cc.c.clientBytes.Add(int64(n))
	return n, err
}

// brokerConn counts one broker-side connection's reads, writes, and the
// MQTT frames its writes carry.
type brokerConn struct {
	net.Conn
	c      *sockCounts
	mu     sync.Mutex // guards frames: a session may write from more than one goroutine
	frames frameScanner
}

func (bc *brokerConn) Read(p []byte) (int, error) {
	n, err := bc.Conn.Read(p)
	bc.c.brokerReads.Add(1)
	return n, err
}

func (bc *brokerConn) Write(p []byte) (int, error) {
	n, err := bc.Conn.Write(p)
	bc.c.brokerWrites.Add(1)
	bc.mu.Lock()
	frames := bc.frames.scan(p[:n])
	bc.mu.Unlock()
	bc.c.brokerFrames.Add(int64(frames))
	return n, err
}

// countingListener wraps every accepted connection in a brokerConn.
type countingListener struct {
	net.Listener
	c *sockCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &brokerConn{Conn: conn, c: l.c}, nil
}

// frameScanner follows MQTT framing across a byte stream split at
// arbitrary write boundaries: a fixed-header byte, a 1-4 byte
// variable-length remaining length, then that many body bytes.
type frameScanner struct {
	inLength bool  // reading remaining-length bytes
	mult     int64 // place value of the next length byte
	body     int64 // remaining length decoded so far / body bytes left
}

// scan consumes p and returns how many frames started in it.
func (f *frameScanner) scan(p []byte) (frames int) {
	for len(p) > 0 {
		switch {
		case f.inLength:
			b := p[0]
			p = p[1:]
			f.body += int64(b&0x7f) * f.mult
			f.mult *= 128
			if b&0x80 == 0 {
				f.inLength = false
			}
		case f.body > 0:
			skip := f.body
			if skip > int64(len(p)) {
				skip = int64(len(p))
			}
			p = p[skip:]
			f.body -= skip
		default: // fixed header byte of the next frame
			frames++
			p = p[1:]
			f.inLength, f.mult, f.body = true, 1, 0
		}
	}
	return frames
}
