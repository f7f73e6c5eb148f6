package broker

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// TestPublishUnroutableTopicCountsAllDrops pins the drop accounting for
// messages whose topic cannot be encoded into a PUBLISH frame (reachable
// only through the internal Publish API, e.g. a wildcard in the topic
// name). Every matched subscriber — QoS1 ones included — must be counted
// as dropped, and no subscriber connection may be torn down by the
// unroutable message (previously the QoS1 packet's encode failure killed
// the subscriber's writer).
func TestPublishUnroutableTopicCountsAllDrops(t *testing.T) {
	bus := newTestBus(t, Options{})
	subA := bus.connect(t, mqttclient.NewOptions("sub-a"))
	subB := bus.connect(t, mqttclient.NewOptions("sub-b"))

	var mu sync.Mutex
	var gotA, gotB []string
	if _, err := subA.Subscribe("bad/#", wire.QoS0, func(m mqttclient.Message) {
		mu.Lock()
		gotA = append(gotA, m.Topic)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := subB.Subscribe("bad/#", wire.QoS1, func(m mqttclient.Message) {
		mu.Lock()
		gotB = append(gotB, m.Topic)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	base := bus.broker.Stats()
	// "bad/+" matches both "bad/#" subscriptions but is not a valid topic
	// *name*, so no frame or packet can be encoded for it.
	bus.broker.Publish("bad/+", []byte("x"), wire.QoS1, false)
	waitFor(t, "both matches counted dropped", func() bool {
		return bus.broker.Stats().MessagesDropped >= base.MessagesDropped+2
	})
	if d := bus.broker.Stats().MessagesDropped - base.MessagesDropped; d != 2 {
		t.Fatalf("dropped delta = %d, want exactly 2 (one per matched subscriber)", d)
	}

	// Both subscriber connections must have survived and still deliver.
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	if err := pub.Publish("bad/ok", []byte("y"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid publish delivered to both", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotA) == 1 && len(gotB) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if gotA[0] != "bad/ok" || gotB[0] != "bad/ok" {
		t.Fatalf("subscribers saw %v / %v, want only the valid topic", gotA, gotB)
	}
}

// TestSubscriptionChurnUnderPublishLoad drives a sustained QoS1 publish
// stream at a stable subscriber while other clients churn subscriptions,
// forcing route-snapshot swaps mid-stream. The stable subscriber must see
// every message exactly once, in publish order — no delivery may be lost
// or duplicated across a swap. Run with -race this also exercises the
// epoch gate's reader/writer fencing.
func TestSubscriptionChurnUnderPublishLoad(t *testing.T) {
	bus := newTestBus(t, Options{SessionQueueSize: 4096})

	stable := bus.connect(t, mqttclient.NewOptions("stable"))
	var mu sync.Mutex
	var got []int
	if _, err := stable.Subscribe("churn/stable", wire.QoS1, func(m mqttclient.Message) {
		seq, err := strconv.Atoi(string(m.Payload))
		if err != nil {
			seq = -1
		}
		mu.Lock()
		got = append(got, seq)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	startEpoch := bus.broker.RouteEpoch()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		churner := bus.connect(t, mqttclient.NewOptions(fmt.Sprintf("churner-%d", c)))
		filters := []string{
			fmt.Sprintf("churn/noise%d/#", c),
			fmt.Sprintf("churn/+/n%d", c),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := filters[i%len(filters)]
				if _, err := churner.Subscribe(f, wire.QoS0, func(mqttclient.Message) {}); err != nil {
					return
				}
				if err := churner.Unsubscribe(f); err != nil {
					return
				}
			}
		}()
	}

	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	const n = 300
	for i := 0; i < n; i++ {
		if err := pub.Publish("churn/stable", []byte(strconv.Itoa(i)), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	waitFor(t, "stable subscriber caught up", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= n
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("received %d messages, want exactly %d", len(got), n)
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("position %d: got seq %d — delivery lost, duplicated, or reordered across a snapshot swap", i, seq)
		}
	}
	if swaps := bus.broker.RouteEpoch() - startEpoch; swaps < 10 {
		t.Fatalf("only %d snapshot swaps happened during the churn window; churners were starved", swaps)
	}
}

// TestRouteMatchZeroAllocs pins the acceptance criterion that the match
// step allocates nothing on the hot path: both the snapshot matcher (the
// single-filter fast path and the multi-filter merge path) and a route
// cache hit must be allocation-free once scratch buffers are warm.
func TestRouteMatchZeroAllocs(t *testing.T) {
	tr := newTestRoutes()
	s1 := newSession("c1", false)
	s2 := newSession("c2", false)
	tr.subscribe("iot/dev/+", s1, wire.QoS0)
	tr.subscribe("iot/dev/temp", s2, wire.QoS1)
	tr.subscribe("iot/#", s2, wire.QoS0)
	tbl := tr.tbl

	mb := getMatchBuf()
	defer mb.release()

	// Single-filter fast path: exactly one terminal node matches and the
	// result aliases its immutable subs slice.
	if n := testing.AllocsPerRun(200, func() {
		if len(tbl.match("iot/other", mb)) != 1 {
			t.Fatal("unexpected match count")
		}
	}); n != 0 {
		t.Fatalf("single-filter match allocates %.1f/op, want 0", n)
	}

	// Multi-filter merge path: three filters match, sessions dedup on
	// highest QoS in the pooled merge buffer.
	if n := testing.AllocsPerRun(200, func() {
		if len(tbl.match("iot/dev/temp", mb)) != 2 {
			t.Fatal("unexpected merge count")
		}
	}); n != 0 {
		t.Fatalf("merge match allocates %.1f/op, want 0", n)
	}

	// Route cache hit: one shard-map load, one cell load, epoch compare.
	var rc routeCache
	rc.store("iot/dev/temp", 1, tbl.match("iot/dev/temp", mb), nil, true)
	if n := testing.AllocsPerRun(200, func() {
		if rc.lookup("iot/dev/temp", 1) == nil {
			t.Fatal("unexpected cache miss")
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", n)
	}
}

// TestRouteCacheEpochInvalidation checks that a cached entry is served
// only for the epoch it was stored under, and that refreshing after a
// swap replaces the stale value in place.
func TestRouteCacheEpochInvalidation(t *testing.T) {
	var rc routeCache
	s := newSession("c", false)
	subs := []routeSub{{session: s, qos: wire.QoS1}}

	rc.store("a/b", 1, subs, nil, true)
	if v := rc.lookup("a/b", 1); v == nil || len(v.subs) != 1 || !v.valid {
		t.Fatalf("fresh lookup = %+v, want the stored route", v)
	}
	if v := rc.lookup("a/b", 2); v != nil {
		t.Fatal("stale-epoch lookup returned a value; must miss after a snapshot swap")
	}
	rc.store("a/b", 2, nil, nil, true)
	if v := rc.lookup("a/b", 2); v == nil || len(v.subs) != 0 {
		t.Fatalf("refreshed lookup = %+v, want the empty epoch-2 route", v)
	}
	if v := rc.lookup("a/b", 1); v != nil {
		t.Fatal("old epoch still served after refresh")
	}
}

// TestWideFanoutDeliversAll pins exactly-once delivery for one publish
// matching several hundred subscribers: every subscriber receives exactly
// one copy of the shared frame.
func TestWideFanoutDeliversAll(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	const n = 256 + 37
	chans := make([]chan outPacket, n)
	b.mu.Lock()
	tbl := b.routes.Load()
	for i := 0; i < n; i++ {
		s := newSession(fmt.Sprintf("f%d", i), false)
		b.sessions[s.clientID] = s
		tbl = tbl.subscribe("fan/t", s, wire.QoS0)
		s.addSubscription("fan/t", wire.QoS0)
		ch, _, _ := s.attach(4)
		chans[i] = ch
	}
	b.swapRoutesLocked(tbl)
	b.mu.Unlock()

	// Publish delivers on the caller's goroutine, so the channels can be
	// inspected immediately.
	b.Publish("fan/t", []byte("payload"), wire.QoS0, false)

	for i, ch := range chans {
		select {
		case op := <-ch:
			if op.frame == nil {
				t.Fatalf("session %d received a non-frame delivery", i)
			}
		default:
			t.Fatalf("session %d missed the fan-out delivery", i)
		}
		select {
		case <-ch:
			t.Fatalf("session %d received a duplicate delivery", i)
		default:
		}
	}
	if d := b.Stats().MessagesDropped; d != 0 {
		t.Fatalf("fan-out dropped %d deliveries on empty queues", d)
	}
}

// TestSupersededSessionCannotEditRoutes: after a clean-session takeover
// replaced a session, SUBSCRIBE or UNSUBSCRIBE packets still arriving on
// its old connection must not touch the routes. A stale filter would never
// be removed, and an unsubscribe would strip the new session's filter of
// the same name.
func TestSupersededSessionCannotEditRoutes(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	old, cur := newSession("c", false), newSession("c", false)
	b.mu.Lock()
	b.sessions["c"] = cur
	b.mu.Unlock()

	sub := func(s *session, filter string) {
		b.handleSubscribe(s, &wire.SubscribePacket{PacketID: 1,
			Subscriptions: []wire.Subscription{{TopicFilter: filter, QoS: wire.QoS0}}})
	}
	sub(cur, "a/b")
	sub(old, "a/stale")
	b.handleUnsubscribe(old, &wire.UnsubscribePacket{PacketID: 2, TopicFilters: []string{"a/b"}})

	mb := getMatchBuf()
	defer mb.release()
	tbl := b.routes.Load()
	if tbl.subCount != 1 || len(tbl.match("a/b", mb)) != 1 || len(tbl.match("a/stale", mb)) != 0 {
		t.Fatalf("routes after superseded edits: %d subscriptions, a/b=%v, a/stale=%v; want only the current session's a/b",
			tbl.subCount, ids(tbl.match("a/b", mb)), ids(tbl.match("a/stale", mb)))
	}
}

// TestStatsSkipsRetainedMu pins the satellite that moved the retained
// count off retainedMu: a Stats snapshot (and thus a $SYS tick or metrics
// scrape) must complete even while a publish holds the retained map lock.
func TestStatsSkipsRetainedMu(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	b.Publish("r/t", []byte("v"), wire.QoS0, true)

	b.retainedMu.Lock()
	defer b.retainedMu.Unlock()
	done := make(chan Stats, 1)
	go func() { done <- b.Stats() }()
	select {
	case st := <-done:
		if st.RetainedMessages != 1 {
			t.Fatalf("RetainedMessages = %d, want 1", st.RetainedMessages)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked on retainedMu")
	}
}

// shardTopics returns n distinct topics that all hash to the route cache's
// shard 0.
func shardTopics(prefix string, n int) []string {
	topics := make([]string, 0, n)
	for i := 0; len(topics) < n; i++ {
		if t := fmt.Sprintf("%s/%d", prefix, i); rcHash(t)&(routeCacheShards-1) == 0 {
			topics = append(topics, t)
		}
	}
	return topics
}

// TestRouteCacheFullShard: a shard full of entries live at the current
// epoch turns new topics away without allocating, and after an epoch swap
// it evicts the stale entries and admits new topics again.
func TestRouteCacheFullShard(t *testing.T) {
	var rc routeCache
	subs := []routeSub{{session: newSession("c", false), qos: wire.QoS0}}
	topics := shardTopics("full", routeCacheShardMax+2)
	for _, topic := range topics[:routeCacheShardMax] {
		rc.store(topic, 1, subs, nil, true)
	}
	extra, late := topics[routeCacheShardMax], topics[routeCacheShardMax+1]
	rc.store(extra, 1, subs, nil, true)
	if rc.lookup(extra, 1) != nil {
		t.Fatal("a full shard with no stale entries admitted a new topic")
	}
	if n := testing.AllocsPerRun(100, func() { rc.store(late, 1, subs, nil, true) }); n != 0 {
		t.Fatalf("miss on a full shard allocates %.1f/op, want 0", n)
	}

	// Epoch 2: ten old topics are republished, so the rest are stale.
	for _, topic := range topics[:10] {
		rc.store(topic, 2, subs, nil, true)
	}
	rc.store(late, 2, subs, nil, true)
	if v := rc.lookup(late, 2); v == nil || len(v.subs) != 1 {
		t.Fatalf("after an epoch swap the full shard did not admit a new topic: %+v", v)
	}
	if n := len(*rc.shards[0].m.Load()); n != 11 {
		t.Fatalf("shard holds %d entries after eviction, want the 10 live ones plus the new topic", n)
	}
}

// TestPublishMissOnFullShardAllocatesNothing: once a shard is full of live
// topics and the topic counters have overflowed, a publish to yet another
// topic of that shard costs routing only.
func TestPublishMissOnFullShardAllocatesNothing(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	topics := shardTopics("dev", routeCacheShardMax+1)
	for _, topic := range topics {
		b.Publish(topic, []byte("v"), wire.QoS0, false)
	}
	p := &wire.PublishPacket{Topic: topics[routeCacheShardMax], Payload: []byte("v")}
	if n := testing.AllocsPerRun(100, func() { b.publish(p, "pub") }); n != 0 {
		t.Fatalf("publish missing a full route-cache shard allocates %.1f/op, want 0", n)
	}
}

// TestSubackFollowsRouteSwap: a client that has read SUBACK may publish at
// once and expects the message back, so SUBACK is queued only once the new
// route snapshot is in place. A publish read section held open keeps the
// swap waiting, and no SUBACK may appear meanwhile.
func TestSubackFollowsRouteSwap(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s := newSession("c", false)
	b.mu.Lock()
	b.sessions["c"] = s
	b.mu.Unlock()
	ch, _, _ := s.attach(4)

	sh := b.gate.enter() // a publish in flight against the old snapshot
	var exitOnce sync.Once
	exit := func() { exitOnce.Do(func() { b.gate.exit(sh) }) }
	defer exit() // before Close, which waits for the subscribe to finish
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.handleSubscribe(s, &wire.SubscribePacket{PacketID: 1,
			Subscriptions: []wire.Subscription{{TopicFilter: "s/t", QoS: wire.QoS0}}})
	}()
	select {
	case op := <-ch:
		t.Fatalf("%v queued while the route swap still waits for an in-flight publish", op.pkt.Type())
	case <-time.After(100 * time.Millisecond):
	}
	exit()
	<-done
	select {
	case op := <-ch:
		if op.pkt == nil || op.pkt.Type() != wire.SUBACK {
			t.Fatalf("queued %+v, want SUBACK", op)
		}
	default:
		t.Fatal("no SUBACK after the route swap")
	}
	mb := getMatchBuf()
	defer mb.release()
	if len(b.routes.Load().match("s/t", mb)) != 1 {
		t.Fatal("subscription missing from the routes")
	}
}
