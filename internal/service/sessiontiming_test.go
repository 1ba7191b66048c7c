package service

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// cktSpec returns a session spec carrying c as inline .ckt text.
func cktSpec(t testing.TB, id string, c *netlist.Circuit) SessionSpec {
	t.Helper()
	var sb strings.Builder
	if err := netlist.WriteCKT(&sb, c); err != nil {
		t.Fatal(err)
	}
	return SessionSpec{ID: id, Netlist: sb.String()}
}

// replyBits renders a timing reply field for field; %v prints every
// float64 in its shortest round-tripping form (NaN and -0 included), so
// equal strings mean bitwise-equal replies.
func replyBits(tr TimingReply) string { return fmt.Sprintf("%+v", tr) }

// TestSessionTimingTopIsPrefixOfFull pins the top-k timing route to the
// full ranking: after a few nudges, every top=k reply is bit for bit
// the head of the top=0 reply (moments, phi and outputs included), the
// full list is ordered by criticality descending with ties by gate
// name, and the replies agree across session worker counts.
func TestSessionTimingTopIsPrefixOfFull(t *testing.T) {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "gen1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := testServer(t, Options{Pool: 1})
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
		spec SessionSpec
	}{
		{"tree7", netlist.Tree7(), SessionSpec{Circuit: "tree7"}},
		{"btree6", netlist.BalancedTree(6), cktSpec(t, "", netlist.BalancedTree(6))},
		{"gen1200", gen, cktSpec(t, "", gen)},
	} {
		gates := tc.c.GateIDs()
		var byWorkers []TimingReply
		for _, workers := range []int{1, 4} {
			sp := tc.spec
			sp.ID = fmt.Sprintf("%s-w%d", tc.name, workers)
			sp.Workers = workers
			if _, err := srv.CreateSession(sp); err != nil {
				t.Fatalf("%s: %v", sp.ID, err)
			}
			for i, s := range []float64{1.75, 2.5, 1.25} {
				g := tc.c.Nodes[gates[(i*len(gates))/3]].Name
				if _, err := srv.SessionNudge(sp.ID, map[string]float64{g: s}); err != nil {
					t.Fatalf("%s: nudge %s: %v", sp.ID, g, err)
				}
			}
			full, err := srv.SessionTiming(sp.ID, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Critical) != len(gates) {
				t.Fatalf("%s: top=0 returned %d rows, want %d", sp.ID, len(full.Critical), len(gates))
			}
			for i := 1; i < len(full.Critical); i++ {
				a, b := full.Critical[i-1], full.Critical[i]
				if a.Criticality < b.Criticality || (a.Criticality == b.Criticality && a.Gate >= b.Gate) {
					t.Fatalf("%s: rows %d,%d out of order: %+v then %+v", sp.ID, i-1, i, a, b)
				}
			}
			for _, k := range []int{1, 5, 16, len(gates)} {
				r, err := srv.SessionTiming(sp.ID, 0, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := min(k, len(gates)); len(r.Critical) != want {
					t.Fatalf("%s: top=%d returned %d rows, want %d", sp.ID, k, len(r.Critical), want)
				}
				head := full
				head.Critical = full.Critical[:len(r.Critical)]
				if replyBits(r) != replyBits(head) {
					t.Fatalf("%s: top=%d is not the head of top=0:\n%+v\nvs\n%+v", sp.ID, k, r, head)
				}
			}
			full.ID = ""
			byWorkers = append(byWorkers, full)
		}
		if replyBits(byWorkers[1]) != replyBits(byWorkers[0]) {
			t.Fatalf("%s: the Workers 4 reply diverges from Workers 1", tc.name)
		}
	}
}

// session10k opens the what-if benchmark's 10k-gate session shape on
// an in-process server and returns the server and session id.
func session10k(tb testing.TB) (*Server, string) {
	tb.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "session10k", Gates: 10_000, Inputs: 128, Outputs: 32,
		Depth: 40, MaxFanin: 4, Seed: 10_007})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Options{StateDir: tb.TempDir(), Pool: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Kill)
	if _, err := srv.CreateSession(cktSpec(tb, "s10k", c)); err != nil {
		tb.Fatal(err)
	}
	return srv, "s10k"
}

// TestSessionTimingAllocatesOK pins the timing route's allocation to
// O(top): ranking ten of 10k gates must not build a row, a name or an
// id per gate.
func TestSessionTimingAllocatesOK(t *testing.T) {
	srv, id := session10k(t)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := srv.SessionTiming(id, 0, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 32<<10 {
		t.Fatalf("SessionTiming(top=10) on 10k gates allocates %d B/op, want < %d", got, 32<<10)
	}
}

// BenchmarkSessionTiming measures the warm timing route on the
// what-if benchmark's 10k-gate session: the top-10 query the workload
// sends and the full top=0 listing.
func BenchmarkSessionTiming(b *testing.B) {
	srv, id := session10k(b)
	for _, top := range []int{10, 0} {
		b.Run(fmt.Sprintf("top%d", top), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srv.SessionTiming(id, 0, top); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
