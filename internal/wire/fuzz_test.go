package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzReadPacket hammers the packet reader with arbitrary bytes: it must
// never panic and every successfully decoded packet must re-encode.
func FuzzReadPacket(f *testing.F) {
	// Seed with one valid packet of each kind.
	seedPackets := []Packet{
		&ConnectPacket{ClientID: "c", CleanSession: true, KeepAlive: 10},
		&ConnackPacket{Code: ConnAccepted},
		&PublishPacket{Topic: "a/b", Payload: []byte("x"), QoS: QoS1, PacketID: 3},
		&AckPacket{PacketType: PUBACK, PacketID: 1},
		&SubscribePacket{PacketID: 2, Subscriptions: []Subscription{{TopicFilter: "a/#", QoS: QoS1}}},
		&SubackPacket{PacketID: 2, ReturnCodes: []byte{1}},
		&UnsubscribePacket{PacketID: 4, TopicFilters: []string{"a"}},
		&PingreqPacket{},
		&DisconnectPacket{},
	}
	for _, p := range seedPackets {
		data, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x30, 0x02, 0x00, 0x00}) // publish with empty topic
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := ReadPacket(bytes.NewReader(data), 1<<16)
		// An unbuffered reader and a connection's bufio.Reader must decode
		// the same bytes to the same packet.
		for _, r := range []io.Reader{iotest.OneByteReader(bytes.NewReader(data)), bufio.NewReaderSize(bytes.NewReader(data), 16)} {
			other, otherErr := ReadPacket(r, 1<<16)
			if (err == nil) != (otherErr == nil) || (err == nil && !reflect.DeepEqual(pkt, other)) {
				t.Fatalf("%T decoded %v, %v; bytes.Reader decoded %v, %v", r, other, otherErr, pkt, err)
			}
		}
		if err != nil {
			return
		}
		// Anything that decodes must re-encode (idempotence of the model).
		if _, err := Encode(pkt); err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", pkt.Type(), err)
		}
	})
}

// FuzzMatchTopic checks the wildcard matcher never panics and respects the
// exact-match identity for valid topics.
func FuzzMatchTopic(f *testing.F) {
	f.Add("a/b/c", "a/b/c")
	f.Add("a/+/c", "a/x/c")
	f.Add("#", "x")
	f.Add("$SYS/#", "$SYS/broker")
	f.Fuzz(func(t *testing.T, filter, topic string) {
		_ = MatchTopic(filter, topic)
		if ValidateTopicName(topic) == nil && ValidateTopicFilter(topic) == nil {
			if !MatchTopic(topic, topic) {
				t.Fatalf("valid topic %q does not match itself", topic)
			}
		}
	})
}
