package loadgen

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simkernel"
)

// refRateSampler is the reply-rate rule written out on its own: one sample per
// interval closed by end, zero-count intervals included, and, when the run is
// done, one sample for the trailing partial interval if it spans at least
// half an interval and holds a reply.
func refRateSampler(start, end core.Time, interval core.Duration, replies []core.Time, done bool) []float64 {
	count := func(k int) int {
		n := 0
		for _, r := range replies {
			if int(r.Sub(start)/interval) == k {
				n++
			}
		}
		return n
	}
	span := max(end.Sub(start), 0)
	closed := int(span / interval)
	var out []float64
	for k := 0; k < closed; k++ {
		out = append(out, float64(count(k))/interval.Seconds())
	}
	if tail := span - core.Duration(closed)*interval; done && tail >= interval/2 && count(closed) > 0 {
		out = append(out, float64(count(closed))/tail.Seconds())
	}
	return out
}

// TestMergedSamplesMatchRateSampler checks the per-lane reply-rate books
// against refRateSampler. The same reply instants — some exactly on interval
// edges, with empty intervals between them — are booked round-robin across 1
// or 3 lanes. A partial view, a reply booked after it, and both Result calls
// of the finished run must each equal the reference samples: the tail sample
// is counted once.
func TestMergedSamplesMatchRateSampler(t *testing.T) {
	start := core.Time(2 * core.Second)
	at := func(ms int) core.Time { return start.Add(core.Duration(ms) * core.Millisecond) }
	// Intervals 0, 1, 3 and 6 hold replies; 2, 4 and 5 are empty. The last
	// two are booked after the partial view.
	replies := []core.Time{at(0), at(250), at(1000), at(1000), at(1500), at(3000), at(3999), at(6000), at(6200)}
	const early = 7
	for _, c := range []struct {
		name string
		end  core.Time
	}{
		{"tail-kept", at(6600)},
		{"tail-exactly-half", at(6500)},
		{"tail-dropped", at(6400)},
		{"end-on-edge", at(7000)},
	} {
		for _, lanes := range []int{1, 3} {
			k := simkernel.NewKernel(nil)
			if lanes > 1 {
				k.Sim.EnableSharding(lanes, 1, 100*core.Microsecond)
			}
			g := New(k, netsim.New(k, netsim.DefaultConfig()), Config{Connections: 1, SampleInterval: core.Second})
			g.started = start
			g.issued = 1
			check := func(when string, end core.Time, n int, done bool) {
				t.Helper()
				first, second := g.Result(), g.Result()
				want := refRateSampler(start, end, core.Second, replies[:n], done)
				if !reflect.DeepEqual(first.ReplyRateSamples, want) {
					t.Errorf("%s, %d lanes, %s: first Result samples %v, reference %v", c.name, lanes, when, first.ReplyRateSamples, want)
				}
				if !reflect.DeepEqual(second.ReplyRateSamples, want) {
					t.Errorf("%s, %d lanes, %s: second Result samples %v, reference %v", c.name, lanes, when, second.ReplyRateSamples, want)
				}
				if first.Finished != end || first.Replies != n {
					t.Errorf("%s, %d lanes, %s: finished %v with %d replies, want %v and %d", c.name, lanes, when, first.Finished, first.Replies, end, n)
				}
			}
			for i := 0; i < early; i++ {
				g.recordReply(k.Sim.LaneQ(i%lanes), start, replies[i])
			}
			// Park the clock in interval 4 for a partial view of the run.
			view := at(4500)
			k.Sim.LaneQ(0).At(view, func(core.Time) {})
			if now := k.Sim.RunUntil(view); now != view {
				t.Fatalf("%s, %d lanes: clock parked at %v, want %v", c.name, lanes, now, view)
			}
			check("partial view", view, early, false)
			for i := early; i < len(replies); i++ {
				g.recordReply(k.Sim.LaneQ(i%lanes), start, replies[i])
			}
			g.resolveKeepAlive(k.Sim.LaneQ(0), c.end)
			if lanes > 1 {
				g.checkDone(0) // the barrier hook's job on a running engine
			}
			if !g.Done() {
				t.Fatalf("%s, %d lanes: run not done after its one connection resolved", c.name, lanes)
			}
			check("finished", c.end, len(replies), true)
			if r := g.Result(); r.Completed != 1 {
				t.Errorf("%s, %d lanes: completed %d, want 1", c.name, lanes, r.Completed)
			}
		}
	}
}

// Result's latency summary is the merged lane histograms, read afresh on
// each call: a second call with no new sample returns the same values, a
// sample booked between two calls, on any lane, is in the second call's
// summary, and the finished run's summary is the reference histogram's.
func TestResultLatencyTracksNewSamples(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		k := simkernel.NewKernel(nil)
		if lanes > 1 {
			k.Sim.EnableSharding(lanes, 1, 100*core.Microsecond)
		}
		g := New(k, netsim.New(k, netsim.DefaultConfig()), Config{Connections: 1, SampleInterval: core.Second})
		g.issued = 1
		var ref metrics.LatencyHist
		book := func(i, ms int) {
			d := core.Duration(ms) * core.Millisecond
			g.recordReply(k.Sim.LaneQ(i%lanes), 0, core.Time(d))
			ref.Observe(d)
		}
		check := func(when string) {
			t.Helper()
			if got, want := g.Result().Latency, ref.Percentiles(); got != want {
				t.Errorf("%d lanes, %s: latency %+v, want %+v", lanes, when, got, want)
			}
		}
		for i, ms := range []int{7, 3, 9, 1, 4} {
			book(i, ms)
		}
		check("first call")
		check("repeated call")
		book(5, 20)
		check("after a late sample")
		g.resolveKeepAlive(k.Sim.LaneQ(0), core.Time(30*core.Millisecond))
		if lanes > 1 {
			g.checkDone(0)
		}
		if !g.Done() {
			t.Fatalf("%d lanes: run not done after its one connection resolved", lanes)
		}
		check("finished")
		check("finished, repeated call")
	}
}
