package broker

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// randomLevel picks a topic level, occasionally a wildcard (filters only).
func randomLevel(rng *rand.Rand, wildcards bool) string {
	if wildcards {
		switch rng.Intn(8) {
		case 0:
			return "+"
		case 1:
			return "#"
		}
	}
	return string(rune('a' + rng.Intn(3)))
}

func randomTopic(rng *rand.Rand) string {
	n := rng.Intn(4) + 1
	levels := make([]string, n)
	for i := range levels {
		levels[i] = randomLevel(rng, false)
	}
	return strings.Join(levels, "/")
}

func randomFilter(rng *rand.Rand) string {
	n := rng.Intn(4) + 1
	levels := make([]string, n)
	for i := range levels {
		levels[i] = randomLevel(rng, true)
		if levels[i] == "#" {
			return strings.Join(levels[:i+1], "/")
		}
	}
	return strings.Join(levels, "/")
}

func sameMatch(got, want map[string]wire.QoS) bool {
	if len(got) != len(want) {
		return false
	}
	for id, qos := range want {
		if g, ok := got[id]; !ok || g != qos {
			return false
		}
	}
	return true
}

type subEntry struct {
	filter string
	qos    wire.QoS
}

// oracleMatch applies the spec-level wire.MatchTopic to a plain list of
// subscriptions (client -> filter -> entry), highest QoS per client.
func oracleMatch(oracle map[string]map[string]subEntry, topic string) map[string]wire.QoS {
	want := make(map[string]wire.QoS)
	for id, subs := range oracle {
		for _, e := range subs {
			if wire.MatchTopic(e.filter, topic) {
				if q, ok := want[id]; !ok || e.qos > q {
					want[id] = e.qos
				}
			}
		}
	}
	return want
}

// TestTrieMatchesNaiveOracle drives random subscribe/unsubscribe sequences
// and checks that route-table matching agrees with the naive oracle. It
// also pins path copying: a table captured mid-sequence must still match
// its own oracle after every later edit.
func TestTrieMatchesNaiveOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTestRoutes()
		oracle := make(map[string]map[string]subEntry) // client -> filter -> entry
		sessions := make(map[string]*session)

		const clients = 4
		for i := 0; i < clients; i++ {
			id := fmt.Sprintf("c%d", i)
			sessions[id] = newSession(id, false)
			oracle[id] = make(map[string]subEntry)
		}

		// Random mutation sequence.
		var (
			midTbl    *routeTable
			midOracle map[string]map[string]subEntry
		)
		for op := 0; op < 60; op++ {
			if op == 30 {
				midTbl = tr.tbl
				midOracle = make(map[string]map[string]subEntry, len(oracle))
				for id, subs := range oracle {
					midOracle[id] = make(map[string]subEntry, len(subs))
					for f, e := range subs {
						midOracle[id][f] = e
					}
				}
			}
			id := fmt.Sprintf("c%d", rng.Intn(clients))
			switch rng.Intn(4) {
			case 0, 1: // subscribe
				filter := randomFilter(rng)
				if wire.ValidateTopicFilter(filter) != nil {
					continue
				}
				qos := wire.QoS(rng.Intn(2))
				tr.subscribe(filter, sessions[id], qos)
				oracle[id][filter] = subEntry{filter: filter, qos: qos}
			case 2: // unsubscribe something we may or may not have
				filter := randomFilter(rng)
				tr.unsubscribe(filter, sessions[id])
				delete(oracle[id], filter)
			case 3: // remove all for a client
				tr.removeAll(sessions[id])
				oracle[id] = make(map[string]subEntry)
			}
		}

		// Both matchers must agree with the oracle: the route table, and a
		// route-cache store/lookup round-trip of its result.
		tbl := tr.tbl
		var rc routeCache
		mb := getMatchBuf()
		defer mb.release()

		for probe := 0; probe < 40; probe++ {
			topic := randomTopic(rng)
			want := oracleMatch(oracle, topic)

			snapGot := ids(tbl.match(topic, mb))
			if !sameMatch(snapGot, want) {
				t.Logf("seed %d topic %q: snapshot=%v oracle=%v", seed, topic, snapGot, want)
				return false
			}
			if midGot, midWant := ids(midTbl.match(topic, mb)), oracleMatch(midOracle, topic); !sameMatch(midGot, midWant) {
				t.Logf("seed %d topic %q: later edits changed an earlier snapshot: %v, want %v", seed, topic, midGot, midWant)
				return false
			}
			rc.store(topic, 7, tbl.match(topic, mb), nil, true)
			hit := rc.lookup(topic, 7)
			if hit == nil {
				t.Logf("seed %d topic %q: cache miss right after store", seed, topic)
				return false
			}
			if cacheGot := ids(hit.subs); !sameMatch(cacheGot, want) {
				t.Logf("seed %d topic %q: cache=%v oracle=%v", seed, topic, cacheGot, want)
				return false
			}
			if rc.lookup(topic, 8) != nil {
				t.Logf("seed %d topic %q: cache served a stale epoch", seed, topic)
				return false
			}
		}

		// Count must equal the oracle's total subscription count.
		total := 0
		for _, subs := range oracle {
			total += len(subs)
		}
		if tbl.subCount != total {
			t.Logf("seed %d: snapshot count %d, oracle %d", seed, tbl.subCount, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
