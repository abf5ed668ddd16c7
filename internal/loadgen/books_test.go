package loadgen

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simkernel"
)

// TestMergedSamplesMatchRateSampler checks the per-lane reply-rate books
// against metrics.RateSampler, the reference implementation. The same reply
// instants — some exactly on interval edges, with empty intervals between
// them — are booked round-robin across 1 or 3 lanes, and the reply-rate
// samples must equal the sampler's exactly: on a partial view of the running
// generator, and on both Result calls of the finished run, each of which
// appends the trailing partial interval once (as RateSampler.Finish does).
func TestMergedSamplesMatchRateSampler(t *testing.T) {
	start := core.Time(2 * core.Second)
	at := func(ms int) core.Time { return start.Add(core.Duration(ms) * core.Millisecond) }
	// Intervals 0, 1, 3 and 6 hold replies; 2, 4 and 5 are empty.
	replies := []core.Time{at(0), at(250), at(1000), at(1000), at(1500), at(3000), at(3999), at(6000), at(6200)}
	for _, c := range []struct {
		name string
		end  core.Time
	}{
		{"tail-kept", at(6600)},
		{"tail-exactly-half", at(6500)},
		{"tail-dropped", at(6400)},
		{"end-on-edge", at(7000)},
	} {
		ref := metrics.NewRateSampler(core.Second)
		ref.Start(start)
		for _, r := range replies {
			ref.Record(r)
		}
		wantPartial := append([]float64(nil), ref.Samples()...)
		wantFirst := append([]float64(nil), ref.Finish(c.end)...)
		wantSecond := append([]float64(nil), ref.Finish(c.end)...)

		for _, lanes := range []int{1, 3} {
			k := simkernel.NewKernel(nil)
			if lanes > 1 {
				k.Sim.EnableSharding(lanes, 1, 100*core.Microsecond)
			}
			g := New(k, netsim.New(k, netsim.DefaultConfig()), Config{Connections: 1, SampleInterval: core.Second})
			g.started = start
			g.issued = 1
			for i, r := range replies {
				g.recordReply(k.Sim.LaneQ(i%lanes), start, r)
			}
			if got := g.Result().ReplyRateSamples; !reflect.DeepEqual(got, wantPartial) {
				t.Errorf("%s, %d lanes: partial samples %v, RateSampler %v", c.name, lanes, got, wantPartial)
			}
			g.resolveKeepAlive(k.Sim.LaneQ(0), c.end)
			if lanes > 1 {
				g.checkDone(0) // the barrier hook's job on a running engine
			}
			if !g.Done() {
				t.Fatalf("%s, %d lanes: run not done after its one connection resolved", c.name, lanes)
			}
			first := g.Result()
			second := g.Result()
			if !reflect.DeepEqual(first.ReplyRateSamples, wantFirst) {
				t.Errorf("%s, %d lanes: first Result samples %v, RateSampler %v", c.name, lanes, first.ReplyRateSamples, wantFirst)
			}
			if !reflect.DeepEqual(second.ReplyRateSamples, wantSecond) {
				t.Errorf("%s, %d lanes: second Result samples %v, RateSampler %v", c.name, lanes, second.ReplyRateSamples, wantSecond)
			}
			if first.Finished != c.end || first.Replies != len(replies) || first.Completed != 1 {
				t.Errorf("%s, %d lanes: finished %v, replies %d, completed %d; want %v, %d, 1",
					c.name, lanes, first.Finished, first.Replies, first.Completed, c.end, len(replies))
			}
		}
	}
}

// Result's latency figures are computed once per sample count and reused: a
// second call with no new sample returns the same values, and a sample booked
// between two calls, on any lane, is in the second call's figures.
func TestResultLatencyTracksNewSamples(t *testing.T) {
	for _, lanes := range []int{1, 3} {
		k := simkernel.NewKernel(nil)
		if lanes > 1 {
			k.Sim.EnableSharding(lanes, 1, 100*core.Microsecond)
		}
		g := New(k, netsim.New(k, netsim.DefaultConfig()), Config{Connections: 1, SampleInterval: core.Second})
		var lat []float64
		book := func(i, ms int) {
			g.recordReply(k.Sim.LaneQ(i%lanes), 0, core.Time(core.Duration(ms)*core.Millisecond))
			lat = append(lat, float64(ms))
		}
		check := func(when string) {
			t.Helper()
			r := g.Result()
			q := metrics.Percentiles(lat, 50, 90, 100)
			got := []float64{r.MeanLatencyMs, r.MedianLatencyMs, r.P90LatencyMs, r.MaxLatencyMs}
			want := []float64{metrics.Summarize(lat).Mean, q[0], q[1], q[2]}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d lanes, %s: mean/p50/p90/max %v, want %v", lanes, when, got, want)
			}
		}
		for i, ms := range []int{7, 3, 9, 1, 4} {
			book(i, ms)
		}
		check("first call")
		check("repeated call")
		book(5, 20)
		check("after a late sample")
	}
}
