package broker

import (
	"testing"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// testRoutes drives routeTable edits the way the broker does: each edit
// derives the next table, and session.subscriptions mirrors the filters
// so removeAll goes through withoutSession.
type testRoutes struct {
	tbl *routeTable
}

func newTestRoutes() *testRoutes { return &testRoutes{tbl: newRouteTable()} }

func (r *testRoutes) subscribe(filter string, s *session, qos wire.QoS) {
	r.tbl = r.tbl.subscribe(filter, s, qos)
	s.addSubscription(filter, qos)
}

func (r *testRoutes) unsubscribe(filter string, s *session) bool {
	var removed bool
	r.tbl, removed = r.tbl.unsubscribe(filter, s.clientID)
	s.removeSubscription(filter)
	return removed
}

func (r *testRoutes) removeAll(s *session) {
	r.tbl, _ = withoutSession(r.tbl, s)
	for f := range s.subscriptionList() {
		s.removeSubscription(f)
	}
}

// match returns a copy of the current table's match result.
func (r *testRoutes) match(topic string) []routeSub {
	mb := getMatchBuf()
	defer mb.release()
	return append([]routeSub(nil), r.tbl.match(topic, mb)...)
}

func (r *testRoutes) countSubscriptions() int { return r.tbl.subCount }

func ids(subs []routeSub) map[string]wire.QoS {
	out := make(map[string]wire.QoS, len(subs))
	for _, s := range subs {
		out[s.session.clientID] = s.qos
	}
	return out
}

func TestTrieExactMatch(t *testing.T) {
	tr := newTestRoutes()
	s := newSession("c1", false)
	tr.subscribe("a/b/c", s, wire.QoS1)

	got := ids(tr.match("a/b/c"))
	if got["c1"] != wire.QoS1 || len(got) != 1 {
		t.Fatalf("match(a/b/c) = %v, want c1@QoS1", got)
	}
	if len(tr.match("a/b/d")) != 0 {
		t.Fatal("match(a/b/d) matched a non-subscriber")
	}
	if len(tr.match("a/b")) != 0 {
		t.Fatal("match(a/b) matched a longer filter")
	}
}

func TestTrieWildcards(t *testing.T) {
	tr := newTestRoutes()
	plus := newSession("plus", false)
	hash := newSession("hash", false)
	tr.subscribe("sensor/+/temp", plus, wire.QoS0)
	tr.subscribe("sensor/#", hash, wire.QoS1)

	got := ids(tr.match("sensor/room1/temp"))
	if len(got) != 2 {
		t.Fatalf("match = %v, want both subscribers", got)
	}
	got = ids(tr.match("sensor/room1/humidity"))
	if len(got) != 1 || got["hash"] != wire.QoS1 {
		t.Fatalf("match = %v, want only hash", got)
	}
	// '#' matches the parent level.
	got = ids(tr.match("sensor"))
	if len(got) != 1 || got["hash"] != wire.QoS1 {
		t.Fatalf("match(sensor) = %v, want only hash", got)
	}
}

func TestTrieOverlappingFiltersHighestQoSWins(t *testing.T) {
	tr := newTestRoutes()
	s := newSession("c", false)
	tr.subscribe("a/#", s, wire.QoS0)
	tr.subscribe("a/b", s, wire.QoS1)

	subs := tr.match("a/b")
	if len(subs) != 1 {
		t.Fatalf("match returned %d entries, want deduplicated 1", len(subs))
	}
	if subs[0].qos != wire.QoS1 {
		t.Fatalf("granted QoS = %v, want QoS1 (highest of overlapping)", subs[0].qos)
	}
}

func TestTrieUnsubscribe(t *testing.T) {
	tr := newTestRoutes()
	s := newSession("c", false)
	tr.subscribe("a/b", s, wire.QoS0)
	if !tr.unsubscribe("a/b", s) {
		t.Fatal("unsubscribe reported missing subscription")
	}
	if tr.unsubscribe("a/b", s) {
		t.Fatal("second unsubscribe reported success")
	}
	if len(tr.match("a/b")) != 0 {
		t.Fatal("match found removed subscription")
	}
	if got := tr.countSubscriptions(); got != 0 {
		t.Fatalf("countSubscriptions = %d, want 0", got)
	}
}

func TestTrieRemoveAll(t *testing.T) {
	tr := newTestRoutes()
	a := newSession("a", false)
	b := newSession("b", false)
	tr.subscribe("x/1", a, wire.QoS0)
	tr.subscribe("x/2", a, wire.QoS0)
	tr.subscribe("x/1", b, wire.QoS0)

	tr.removeAll(a)
	if got := tr.countSubscriptions(); got != 1 {
		t.Fatalf("countSubscriptions = %d, want 1", got)
	}
	got := ids(tr.match("x/1"))
	if len(got) != 1 || got["b"] != wire.QoS0 {
		t.Fatalf("match(x/1) = %v, want only b", got)
	}
}

func TestTrieDollarTopicsNotMatchedByWildcards(t *testing.T) {
	tr := newTestRoutes()
	s := newSession("c", false)
	tr.subscribe("#", s, wire.QoS0)
	tr.subscribe("+/x", s, wire.QoS0)
	if len(tr.match("$SYS/x")) != 0 {
		t.Fatal("wildcard filter matched $-prefixed topic")
	}

	tr.subscribe("$SYS/x", s, wire.QoS0)
	if len(tr.match("$SYS/x")) != 1 {
		t.Fatal("exact filter failed to match $-prefixed topic")
	}
}

func TestTrieResubscribeReplacesQoS(t *testing.T) {
	tr := newTestRoutes()
	s := newSession("c", false)
	tr.subscribe("a", s, wire.QoS0)
	tr.subscribe("a", s, wire.QoS1)
	subs := tr.match("a")
	if len(subs) != 1 || subs[0].qos != wire.QoS1 {
		t.Fatalf("resubscribe: got %d subs qos=%v, want 1 sub at QoS1", len(subs), subs[0].qos)
	}
	if got := tr.countSubscriptions(); got != 1 {
		t.Fatalf("countSubscriptions = %d, want 1", got)
	}
}

func TestTrieEmptyLevels(t *testing.T) {
	tr := newTestRoutes()
	s := newSession("c", false)
	tr.subscribe("a//b", s, wire.QoS0)
	if len(tr.match("a//b")) != 1 {
		t.Fatal("empty-level filter did not match identical topic")
	}
	if len(tr.match("a/b")) != 0 {
		t.Fatal("empty-level filter matched collapsed topic")
	}
}
