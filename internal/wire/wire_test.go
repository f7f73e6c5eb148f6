package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func roundTrip(t *testing.T, p Packet) Packet {
	t.Helper()
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode(%T) error: %v", p, err)
	}
	got, err := ReadPacket(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatalf("ReadPacket(%T) error: %v", p, err)
	}
	return got
}

func TestConnectRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  *ConnectPacket
	}{
		{"minimal", &ConnectPacket{ClientID: "n1", CleanSession: true, KeepAlive: 30}},
		{"with will", &ConnectPacket{
			ClientID: "n2", CleanSession: true, KeepAlive: 60,
			WillFlag: true, WillTopic: "ifot/status/n2", WillMessage: []byte("offline"),
			WillQoS: QoS1, WillRetain: true,
		}},
		{"with auth", &ConnectPacket{
			ClientID: "n3", KeepAlive: 10,
			HasUsername: true, Username: "user",
			HasPassword: true, Password: []byte("secret"),
		}},
		{"empty client id", &ConnectPacket{ClientID: "", CleanSession: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.pkt)
			// A zero ProtocolLevel encodes as the 3.1.1 default.
			want := *tt.pkt
			if want.ProtocolLevel == 0 {
				want.ProtocolLevel = ProtocolLevel311
			}
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, &want)
			}
		})
	}
}

func TestConnectMQTT31RoundTrip(t *testing.T) {
	in := &ConnectPacket{ClientID: "legacy", CleanSession: true, ProtocolLevel: ProtocolLevel31}
	got := roundTrip(t, in).(*ConnectPacket)
	if got.ProtocolLevel != ProtocolLevel31 || got.ClientID != "legacy" {
		t.Fatalf("3.1 round trip = %+v", got)
	}
}

func TestConnectRejectsUnknownProtocolName(t *testing.T) {
	// Craft a CONNECT with a bogus protocol name.
	in := &ConnectPacket{ClientID: "x", CleanSession: true}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	// Protocol name "MQTT" starts at offset 4 (hdr+len+2-byte strlen).
	copy(data[4:8], "JUNK")
	if _, err := ReadPacket(bytes.NewReader(data), 0); err == nil {
		t.Fatal("accepted bogus protocol name")
	}
}

func TestConnackRoundTrip(t *testing.T) {
	for _, pkt := range []*ConnackPacket{
		{SessionPresent: false, Code: ConnAccepted},
		{SessionPresent: true, Code: ConnAccepted},
		{Code: ConnRefusedIdentifier},
	} {
		got := roundTrip(t, pkt)
		if !reflect.DeepEqual(got, pkt) {
			t.Errorf("round trip: got %+v want %+v", got, pkt)
		}
	}
}

func TestPublishRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  *PublishPacket
	}{
		{"qos0", &PublishPacket{Topic: "ifot/sensor/a", Payload: []byte("12345")}},
		{"qos1", &PublishPacket{Topic: "ifot/sensor/b", Payload: []byte{0, 1, 2}, QoS: QoS1, PacketID: 7}},
		{"qos2 dup retain", &PublishPacket{Topic: "t", Payload: nil, QoS: QoS2, PacketID: 99, Dup: true, Retain: true}},
		{"empty payload", &PublishPacket{Topic: "x/y/z", Payload: nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.pkt).(*PublishPacket)
			if got.Topic != tt.pkt.Topic || !bytes.Equal(got.Payload, tt.pkt.Payload) ||
				got.QoS != tt.pkt.QoS || got.PacketID != tt.pkt.PacketID ||
				got.Dup != tt.pkt.Dup || got.Retain != tt.pkt.Retain {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, tt.pkt)
			}
		})
	}
}

func TestPublishQoS1RequiresPacketID(t *testing.T) {
	_, err := Encode(&PublishPacket{Topic: "t", QoS: QoS1})
	if !errors.Is(err, ErrProtocolViolated) {
		t.Fatalf("Encode(QoS1, id=0) err = %v, want ErrProtocolViolated", err)
	}
}

func TestPublishRejectsWildcardTopic(t *testing.T) {
	_, err := Encode(&PublishPacket{Topic: "a/+/b"})
	if !errors.Is(err, ErrInvalidTopic) {
		t.Fatalf("err = %v, want ErrInvalidTopic", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, pt := range []PacketType{PUBACK, PUBREC, PUBREL, PUBCOMP, UNSUBACK} {
		pkt := &AckPacket{PacketType: pt, PacketID: 1234}
		got := roundTrip(t, pkt)
		if !reflect.DeepEqual(got, pkt) {
			t.Errorf("%v round trip: got %+v want %+v", pt, got, pkt)
		}
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	pkt := &SubscribePacket{
		PacketID: 42,
		Subscriptions: []Subscription{
			{TopicFilter: "ifot/sensor/+", QoS: QoS1},
			{TopicFilter: "ifot/#", QoS: QoS0},
		},
	}
	got := roundTrip(t, pkt)
	if !reflect.DeepEqual(got, pkt) {
		t.Errorf("round trip: got %+v want %+v", got, pkt)
	}
}

func TestSubscribeRequiresTopics(t *testing.T) {
	if _, err := Encode(&SubscribePacket{PacketID: 1}); !errors.Is(err, ErrProtocolViolated) {
		t.Fatalf("err = %v, want ErrProtocolViolated", err)
	}
}

func TestSubackRoundTrip(t *testing.T) {
	pkt := &SubackPacket{PacketID: 9, ReturnCodes: []byte{0, 1, SubackFailure}}
	got := roundTrip(t, pkt)
	if !reflect.DeepEqual(got, pkt) {
		t.Errorf("round trip: got %+v want %+v", got, pkt)
	}
}

func TestUnsubscribeRoundTrip(t *testing.T) {
	pkt := &UnsubscribePacket{PacketID: 5, TopicFilters: []string{"a/b", "c/#"}}
	got := roundTrip(t, pkt)
	if !reflect.DeepEqual(got, pkt) {
		t.Errorf("round trip: got %+v want %+v", got, pkt)
	}
}

func TestEmptyPackets(t *testing.T) {
	for _, p := range []Packet{&PingreqPacket{}, &PingrespPacket{}, &DisconnectPacket{}} {
		got := roundTrip(t, p)
		if got.Type() != p.Type() {
			t.Errorf("round trip type = %v, want %v", got.Type(), p.Type())
		}
	}
}

func TestReadPacketEnforcesMaxSize(t *testing.T) {
	data, err := Encode(&PublishPacket{Topic: "t", Payload: make([]byte, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPacket(bytes.NewReader(data), 100); !errors.Is(err, ErrPacketTooLarge) {
		t.Fatalf("err = %v, want ErrPacketTooLarge", err)
	}
}

func TestReadPacketTruncated(t *testing.T) {
	data, err := Encode(&PublishPacket{Topic: "topic", Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut++ {
		_, err := ReadPacket(bytes.NewReader(data[:cut]), 0)
		if err == nil {
			t.Fatalf("ReadPacket succeeded on %d/%d-byte truncation", cut, len(data))
		}
	}
}

// TestReadPacketStream decodes a stream of mixed packets, one of them
// larger than a bufio.Reader's buffer, from a source that returns one byte
// per Read: directly, and through buffered readers that carry bytes over
// from one packet to the next.
func TestReadPacketStream(t *testing.T) {
	packets := []Packet{
		&ConnectPacket{ClientID: "c", CleanSession: true, KeepAlive: 10},
		&SubscribePacket{PacketID: 1, Subscriptions: []Subscription{{TopicFilter: "a/#", QoS: QoS1}}},
		&PublishPacket{Topic: "a/big", Payload: bytes.Repeat([]byte("x"), 5000)},
		&PingreqPacket{},
		&PublishPacket{Topic: "a/b", Payload: []byte("small"), QoS: QoS1, PacketID: 7},
		&AckPacket{PacketType: PUBACK, PacketID: 7},
		&DisconnectPacket{},
	}
	var stream []byte
	for _, p := range packets {
		var err error
		if stream, err = AppendEncode(stream, p); err != nil {
			t.Fatal(err)
		}
	}
	readers := map[string]func() io.Reader{
		"one-byte":           func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"bufio/one-byte":     func() io.Reader { return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(stream))) },
		"bufio16/one-byte":   func() io.Reader { return bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), 16) },
		"bufio/whole-stream": func() io.Reader { return bufio.NewReader(bytes.NewReader(stream)) },
	}
	for name, mk := range readers {
		r := mk()
		for i, want := range packets {
			got, err := ReadPacket(r, 0)
			if err != nil {
				t.Fatalf("%s: packet %d (%v): %v", name, i, want.Type(), err)
			}
			wantB, _ := Encode(want)
			gotB, err := Encode(got)
			if err != nil || !bytes.Equal(gotB, wantB) {
				t.Fatalf("%s: packet %d decoded as %+v, want %+v", name, i, got, want)
			}
		}
		if _, err := ReadPacket(r, 0); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the stream err = %v, want io.EOF", name, err)
		}
	}
}

// readCounter counts Read calls on a reader that also offers ReadByte.
type readCounter struct {
	*bytes.Reader
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads++
	return r.Reader.Read(p)
}

// TestReadPacketTakesHeaderThroughReadByte: given an io.ByteReader, the
// fixed header costs no Read call, leaving one Read per packet body.
func TestReadPacketTakesHeaderThroughReadByte(t *testing.T) {
	var stream []byte
	const n = 5
	for i := 0; i < n; i++ {
		var err error
		if stream, err = AppendEncodePublish(stream, "a/b", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	r := &readCounter{Reader: bytes.NewReader(stream)}
	for i := 0; i < n; i++ {
		if _, err := ReadPacket(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.reads != n {
		t.Fatalf("%d Read calls for %d packets, want one per body", r.reads, n)
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode(PacketType(0), 0, nil); !errors.Is(err, ErrUnknownPacket) {
		t.Fatalf("err = %v, want ErrUnknownPacket", err)
	}
	if _, err := Decode(PacketType(15), 0, nil); !errors.Is(err, ErrUnknownPacket) {
		t.Fatalf("err = %v, want ErrUnknownPacket", err)
	}
}

func TestConnectRejectsReservedFlagBit(t *testing.T) {
	data, err := Encode(&ConnectPacket{ClientID: "a", CleanSession: true})
	if err != nil {
		t.Fatal(err)
	}
	// Connect flags byte is at: 1 (fixed hdr) + 1 (remlen, small pkt) +
	// 2+4 (proto name) + 1 (level) = offset 9.
	data[9] |= 1
	if _, err := ReadPacket(bytes.NewReader(data), 0); err == nil {
		t.Fatal("ReadPacket accepted CONNECT with reserved flag bit set")
	}
}

func TestRemainingLengthRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152, MaxRemainingLength} {
		b := appendRemainingLength(nil, n)
		got, err := readRemainingLength(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("readRemainingLength(%d) error: %v", n, err)
		}
		if got != n {
			t.Errorf("remaining length %d round-tripped to %d", n, got)
		}
	}
}

func TestRemainingLengthOverlong(t *testing.T) {
	_, err := readRemainingLength(bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x01}))
	if !errors.Is(err, ErrMalformedPacket) {
		t.Fatalf("err = %v, want ErrMalformedPacket", err)
	}
}

func TestPingreqRejectsBody(t *testing.T) {
	if _, err := Decode(PINGREQ, 0, []byte{1}); err == nil {
		t.Fatal("Decode accepted PINGREQ with payload")
	}
}

// Property: every QoS-0 publish with a valid topic round-trips.
func TestPublishRoundTripProperty(t *testing.T) {
	f := func(payload []byte, topicSeed uint8) bool {
		topic := "ifot/prop/" + string(rune('a'+topicSeed%26))
		in := &PublishPacket{Topic: topic, Payload: payload}
		data, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := ReadPacket(bytes.NewReader(data), 0)
		if err != nil {
			return false
		}
		pub, ok := out.(*PublishPacket)
		return ok && pub.Topic == topic && bytes.Equal(pub.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestReadPacketFuzzNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = ReadPacket(bytes.NewReader(data), 1<<16)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePacket(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePacket(&buf, &PingreqPacket{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacket(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type() != PINGREQ {
		t.Fatalf("type = %v, want PINGREQ", got.Type())
	}
}

func TestReadPacketEOF(t *testing.T) {
	_, err := ReadPacket(bytes.NewReader(nil), 0)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestPacketTypeString(t *testing.T) {
	if got := PUBLISH.String(); got != "PUBLISH" {
		t.Errorf("PUBLISH.String() = %q", got)
	}
	if got := PacketType(99).String(); got != "UNKNOWN(99)" {
		t.Errorf("PacketType(99).String() = %q", got)
	}
}
