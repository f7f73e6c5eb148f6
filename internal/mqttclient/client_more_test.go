package mqttclient

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestClientDialTCP(t *testing.T) {
	b := broker.New(broker.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	t.Cleanup(func() { _ = b.Close() })

	c, err := Dial(l.Addr().String(), NewOptions("dialer"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish("t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
}

func TestClientDialRefused(t *testing.T) {
	// Nothing listens on this port (bind then close to reserve).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	if _, err := Dial(addr, NewOptions("nope")); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestClientDoneClosesOnServerDrop(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	select {
	case <-c.Done():
		t.Fatal("Done closed while connected")
	default:
	}
	_ = c.conn.Close()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after transport loss")
	}
}

func TestHandlerRegistrationRemove(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))

	first := make(chan Message, 4)
	second := make(chan Message, 4)
	_, reg1, err := c.SubscribeHandle("shared/t", wire.QoS0, func(m Message) { first <- m })
	if err != nil {
		t.Fatal(err)
	}
	if reg1.Filter() != "shared/t" {
		t.Fatalf("Filter() = %q", reg1.Filter())
	}
	if _, _, err := c.SubscribeHandle("shared/t", wire.QoS0, func(m Message) { second <- m }); err != nil {
		t.Fatal(err)
	}

	// Removing one handler must leave the other attached.
	reg1.Remove()
	if err := c.Publish("shared/t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("surviving handler not invoked")
	}
	select {
	case <-first:
		t.Fatal("removed handler invoked")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestClientAckTimeout(t *testing.T) {
	// A server that accepts the connection but never acks publishes.
	listener := netsim.NewPipeListener()
	t.Cleanup(func() { _ = listener.Close() })
	go func() {
		conn, err := listener.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadPacket(conn, 0); err != nil { // CONNECT
			return
		}
		_ = wire.WritePacket(conn, &wire.ConnackPacket{Code: wire.ConnAccepted})
		for { // swallow everything silently
			if _, err := wire.ReadPacket(conn, 0); err != nil {
				return
			}
		}
	}()

	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions("quiet")
	opts.AckTimeout = 50 * time.Millisecond
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish("t", []byte("x"), wire.QoS1, false); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("err = %v, want ErrAckTimeout", err)
	}
}

func TestClientConnectRejectsNonConnack(t *testing.T) {
	listener := netsim.NewPipeListener()
	t.Cleanup(func() { _ = listener.Close() })
	go func() {
		conn, err := listener.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadPacket(conn, 0); err != nil {
			return
		}
		_ = wire.WritePacket(conn, &wire.PingrespPacket{}) // not a CONNACK
		time.Sleep(time.Second)
	}()
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Connect(conn, NewOptions("x")); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestClientQoS1RetainedPublishFlagPreserved(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("c"))
	if err := c.Publish("t", []byte("x"), wire.QoS1, true); err != nil {
		t.Fatal(err)
	}
	for _, p := range fb.packets() {
		if pub, ok := p.(*wire.PublishPacket); ok {
			if !pub.Retain {
				t.Fatal("retain flag lost on the wire")
			}
			return
		}
	}
	t.Fatal("publish never reached the fake broker")
}

func TestClientInboundQoS1IsAcked(t *testing.T) {
	// Real broker: subscribing at QoS1 and receiving a QoS1 message
	// requires the client to PUBACK or the broker would keep it inflight.
	b := broker.New(broker.Options{})
	listener := netsim.NewPipeListener()
	go func() { _ = b.Serve(listener) }()
	t.Cleanup(func() { _ = b.Close(); _ = listener.Close() })

	subConn, _ := listener.Dial()
	sub, err := Connect(subConn, NewOptions("sub"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan Message, 1)
	if _, err := sub.Subscribe("q1/t", wire.QoS1, func(m Message) { got <- m }); err != nil {
		t.Fatal(err)
	}

	pubConn, _ := listener.Dial()
	pub, err := Connect(pubConn, NewOptions("pub"))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("q1/t", []byte("x"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.QoS != wire.QoS1 {
			t.Fatalf("QoS = %v", m.QoS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	// The broker's inflight window must drain (client acked).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().MessagesDelivered >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("delivery not accounted")
}

// readCountConn counts the Read calls that returned data.
type readCountConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCountConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestClientKeepsPublishSentWithConnack: a broker may send a retained
// message in the same segment as CONNACK. The reader that took CONNACK
// must hand the rest to the read loop, so the message is delivered, and
// both packets come in with one read.
func TestClientKeepsPublishSentWithConnack(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		if _, err := wire.ReadPacket(server, 0); err != nil { // CONNECT
			return
		}
		seg, _ := wire.AppendEncode(nil, &wire.ConnackPacket{Code: wire.ConnAccepted})
		seg, _ = wire.AppendEncode(seg, &wire.PublishPacket{Topic: "r/t", Payload: []byte("kept"), Retain: true})
		if _, err := server.Write(seg); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, server) // DISCONNECT at Close
	}()

	conn := &readCountConn{Conn: client}
	got := make(chan Message, 1)
	opts := NewOptions("c")
	opts.KeepAlive = 0
	opts.DefaultHandler = func(m Message) { got <- m }
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case m := <-got:
		if m.Topic != "r/t" || string(m.Payload) != "kept" || !m.Retain {
			t.Fatalf("delivered %+v, want the retained r/t=kept", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the PUBLISH that arrived with CONNACK was never delivered")
	}
	if n := conn.reads.Load(); n != 1 {
		t.Fatalf("client made %d reads for CONNACK and PUBLISH in one segment, want 1", n)
	}
}
