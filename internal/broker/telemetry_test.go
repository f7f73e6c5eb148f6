package broker

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestBrokerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := newTestBus(t, Options{Registry: reg})

	sub := bus.connect(t, mqttclient.NewOptions("m-sub"))
	pub := bus.connect(t, mqttclient.NewOptions("m-pub"))
	got := make(chan mqttclient.Message, 16)
	if _, err := sub.Subscribe("rt/s0", wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pub.Publish("rt/s0", []byte("x"), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timeout")
		}
	}

	if n := reg.Counter("ifot_broker_messages_received_total", "").Value(); n != 3 {
		t.Fatalf("received counter = %d, want 3", n)
	}
	if n := reg.Counter("ifot_broker_publish_total", "", telemetry.L("topic", "rt/s0")).Value(); n != 3 {
		t.Fatalf("per-topic counter = %d, want 3", n)
	}
	waitFor(t, "delivered counter", func() bool {
		return reg.Counter("ifot_broker_messages_delivered_total", "").Value() >= 3
	})
	if g := reg.Gauge("ifot_broker_clients_connected", "").Value(); g != 2 {
		t.Fatalf("clients gauge = %v, want 2", g)
	}
	if up := reg.Gauge("ifot_broker_uptime_seconds", "").Value(); up < 0 {
		t.Fatalf("uptime gauge = %v", up)
	}
}

func TestBrokerPerTopicCardinalityBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Registry: reg})
	defer b.Close()
	for i := 0; i < maxPublishTopics*2; i++ {
		b.Publish("flood/"+strconv.Itoa(i), []byte("x"), wire.QoS0, false)
	}
	counts := b.PublishCounts()
	if len(counts) > maxPublishTopics+1 {
		t.Fatalf("per-topic accounting grew to %d keys", len(counts))
	}
	if counts[overflowTopicKey] != maxPublishTopics {
		t.Fatalf("overflow bucket = %d, want %d", counts[overflowTopicKey], maxPublishTopics)
	}
	if n := reg.SeriesCount("ifot_broker_publish_total"); n > maxPublishTopics+1 {
		t.Fatalf("metric cardinality %d exceeds bound", n)
	}
	// $SYS traffic must not enter per-topic accounting.
	b.Publish(SysTopicPrefix+"uptime", []byte("1 seconds"), wire.QoS0, true)
	if _, ok := b.PublishCounts()[SysTopicPrefix+"uptime"]; ok {
		t.Fatal("$SYS topic leaked into publish accounting")
	}
}

// TestOverflowTopicCounterSkipsWriteLock: once the per-topic counters are
// full, resolving a new topic's counter finds the overflow bucket under the
// read lock, so a route-cache miss never waits for pubMu's write lock.
func TestOverflowTopicCounterSkipsWriteLock(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	for i := 0; i <= maxPublishTopics; i++ {
		b.Publish("flood/"+strconv.Itoa(i), []byte("x"), wire.QoS0, false)
	}
	overflow := b.topicCounter("flood/next")

	b.pubMu.RLock()
	defer b.pubMu.RUnlock()
	done := make(chan *topicCount, 1)
	go func() { done <- b.topicCounter("flood/later") }()
	select {
	case tc := <-done:
		if tc != overflow {
			t.Fatal("an overflowed topic did not resolve to the overflow counter")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("topicCounter took pubMu's write lock for an overflowed topic")
	}
}

// TestRetainedStoreRouteAtomic drives a stream of monotonically increasing
// retained publishes while other clients repeatedly subscribe. Because
// store+route happen under one broker lock, each subscriber's message
// stream (retained replay, then live messages) must never go backwards.
// Run with -race to also exercise the locking.
func TestRetainedStoreRouteAtomic(t *testing.T) {
	bus := newTestBus(t, Options{})
	const topic = "atomic/counter"

	stop := make(chan struct{})
	pub := bus.connect(t, mqttclient.NewOptions("writer"))
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for v := 1; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := pub.Publish(topic, []byte(strconv.Itoa(v)), wire.QoS0, true); err != nil {
				return
			}
		}
	}()

	for round := 0; round < 20; round++ {
		c := bus.connect(t, mqttclient.NewOptions("reader-"+strconv.Itoa(round)))
		var mu sync.Mutex
		last := -1
		violation := ""
		if _, err := c.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) {
			v, err := strconv.Atoi(string(m.Payload))
			if err != nil {
				return
			}
			mu.Lock()
			if v < last && violation == "" {
				violation = strconv.Itoa(v) + " after " + strconv.Itoa(last)
			}
			last = v
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		if violation != "" {
			mu.Unlock()
			t.Fatalf("round %d: stream went backwards: %s", round, violation)
		}
		mu.Unlock()
		_ = c.Close()
	}
	close(stop)
	writerWG.Wait()
}

func TestSysUptimeAndVersionRetained(t *testing.T) {
	bus := newTestBus(t, Options{})
	stop := make(chan struct{})
	done := bus.broker.PublishSysStats(time.Hour, stop) // one shot, then idle
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	waitFor(t, "sys publish", func() bool { return bus.broker.Stats().RetainedMessages > 0 })

	late := bus.connect(t, mqttclient.NewOptions("late-uptime"))
	got := make(chan mqttclient.Message, 8)
	for _, topic := range []string{SysTopicPrefix + "uptime", SysTopicPrefix + "version"} {
		if _, err := late.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]string{}
	for len(seen) < 2 {
		select {
		case m := <-got:
			if !m.Retain {
				t.Fatalf("%s not retained", m.Topic)
			}
			seen[m.Topic] = string(m.Payload)
		case <-time.After(5 * time.Second):
			t.Fatalf("missing retained sys topics, saw %v", seen)
		}
	}
	if up := seen[SysTopicPrefix+"uptime"]; !strings.HasSuffix(up, " seconds") {
		t.Fatalf("uptime payload %q not in Mosquitto format", up)
	}
	if v := seen[SysTopicPrefix+"version"]; v != Version {
		t.Fatalf("version payload = %q, want %q", v, Version)
	}
}

func TestSysPerTopicRates(t *testing.T) {
	bus := newTestBus(t, Options{})
	pub := bus.connect(t, mqttclient.NewOptions("rate-pub"))

	stop := make(chan struct{})
	done := bus.broker.PublishSysStats(30*time.Millisecond, stop)
	t.Cleanup(func() {
		close(stop)
		<-done
	})

	c := bus.connect(t, mqttclient.NewOptions("rate-watch"))
	got := make(chan mqttclient.Message, 64)
	if _, err := c.Subscribe(SysTopicPrefix+"load/publish/rt/s1", wire.QoS0, func(m mqttclient.Message) {
		got <- m
	}); err != nil {
		t.Fatal(err)
	}

	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stopPub:
				return
			default:
			}
			_ = pub.Publish("rt/s1", []byte("x"), wire.QoS0, false)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stopPub)
		pubWG.Wait()
	}()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case m := <-got:
			rate, err := strconv.ParseFloat(string(m.Payload), 64)
			if err != nil {
				t.Fatalf("non-numeric rate payload %q", m.Payload)
			}
			if rate > 0 {
				return
			}
		case <-deadline:
			t.Fatal("no per-topic publish rate observed")
		}
	}
}

// TestPublishSysStatsShutdownPaths covers both ways the publisher exits:
// the caller's stop channel and broker Close.
func TestPublishSysStatsShutdownPaths(t *testing.T) {
	t.Run("stop channel", func(t *testing.T) {
		b := New(Options{})
		defer b.Close()
		stop := make(chan struct{})
		done := b.PublishSysStats(10*time.Millisecond, stop)
		time.Sleep(25 * time.Millisecond)
		close(stop)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("publisher did not exit on stop")
		}
	})
	t.Run("broker close", func(t *testing.T) {
		b := New(Options{})
		done := b.PublishSysStats(10*time.Millisecond, nil)
		time.Sleep(25 * time.Millisecond)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("publisher did not exit on broker close")
		}
	})
}
