package pushcore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// tickRig is a server with a fixed, fully subscribed member set: the members
// connect at time 0 and subscribe before the first tick, and the member at
// index stalled (if any) never reads and advertises a 512-byte window, so a
// larger push to it jams and stays jammed.
type tickRig struct {
	k       *simkernel.Kernel
	s       *Server
	clients []*netsim.ClientConn
}

func newTickRig(t *testing.T, cfg Config, members, stalled int) *tickRig {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	r := &tickRig{k: k, s: New(k, n, cfg), clients: make([]*netsim.ClientConn, members)}
	r.s.Start()
	subscribe := make([]byte, SubscribeSize)
	for i := range r.clients {
		opts := netsim.ConnectOptions{}
		if i == stalled {
			opts = netsim.ConnectOptions{RecvWindow: 512, StallReads: true}
		}
		var cc *netsim.ClientConn
		cc = n.ConnectWith(k.Now(), opts, &simtest.ConnHooks{
			OnConnected: func(now core.Time) { cc.Send(now, subscribe) },
		})
		r.clients[i] = cc
	}
	k.Sim.RunUntil(core.Time(r.s.cfg.TickInterval / 2))
	if got := r.s.Members(); got != members || r.s.stats.Ticks != 0 {
		t.Fatalf("before the first tick: %d members subscribed, %d ticks fired; want %d and 0",
			got, r.s.stats.Ticks, members)
	}
	return r
}

// fdOf returns the descriptor number of the member whose ServerConn is sc.
func (r *tickRig) fdOf(sc *netsim.ServerConn) int {
	for i := 0; i < r.s.Members(); i++ {
		fd := int(r.s.members.Get(i))
		if r.s.conns.Get(fd).fd.File() == sc {
			return fd
		}
	}
	return -1
}

// TestTickPushesMatchOneAtATimeReference records every push the ticks
// initiate (the member's descriptor and the instant OnDeliver sees) and
// compares the sequence with a reference that samples and pushes one slot
// at a time. Three members and four slots a tick force duplicate draws; the
// stalled member's first push jams, so a later draw of it in the same tick
// must be skipped while a duplicate draw of any other member pushes again.
// Deciding the skip before the tick's first push would push the stalled
// member at every draw in that tick.
func TestTickPushesMatchOneAtATimeReference(t *testing.T) {
	const members, stalled, ticks = 3, 1, 12
	for _, backend := range []string{"poll", "devpoll", "rtsig", "epoll", "epoll-et", "compio"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{Backend: backend, FanoutSize: 4, Payload: 2048, TickInterval: 10 * core.Millisecond, Seed: 4}
			r := newTickRig(t, cfg, members, stalled)
			type push struct {
				fd int
				at core.Time
			}
			var got []push
			r.s.OnDeliver = func(now core.Time, sc *netsim.ServerConn) { got = append(got, push{r.fdOf(sc), now}) }
			order := make([]int32, r.s.Members())
			for i := range order {
				order[i] = r.s.members.Get(i)
			}
			stalledFD := -1
			for _, fd := range order {
				if r.s.conns.Get(int(fd)).fd.File().(*netsim.ServerConn).Peer() == r.clients[stalled] {
					stalledFD = int(fd)
				}
			}

			// The reference: slot by slot, the stalled member is busy from
			// its first push on, every other member is never busy.
			want := make([][]int, ticks)
			jammed, skips, dupTicks, sameTickSkips := false, int64(0), 0, 0
			for tick := range want {
				drawn := map[int]int{}
				jamsNow := false
				for i := 0; i < cfg.FanoutSize; i++ {
					h := Mix(cfg.Seed ^ (uint64(tick)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9))
					fd := int(order[h%uint64(len(order))])
					drawn[fd]++
					if fd == stalledFD && jammed {
						skips++
						if jamsNow {
							sameTickSkips++
						}
						continue
					}
					if fd == stalledFD {
						jammed, jamsNow = true, true
					}
					want[tick] = append(want[tick], fd)
				}
				for fd, n := range drawn {
					if fd != stalledFD && n > 1 {
						dupTicks++
						break
					}
				}
			}
			if dupTicks == 0 || sameTickSkips == 0 {
				t.Fatalf("seed %d draws no duplicate of a free member (%d ticks) or no second draw of the stalled member in the tick that jams it (%d): pick another",
					cfg.Seed, dupTicks, sameTickSkips)
			}

			for tick := range want {
				deadline := core.Time(tick+1) * core.Time(cfg.TickInterval)
				r.k.Sim.RunUntil(deadline.Add(cfg.TickInterval / 2))
				if len(got) != len(want[tick]) {
					t.Fatalf("tick %d pushed %v, want descriptors %v", tick, got, want[tick])
				}
				for i, p := range got {
					if p.fd != want[tick][i] || p.at != got[0].at || p.at < deadline {
						t.Fatalf("tick %d (due %v) pushed %v, want descriptors %v at one instant", tick, deadline, got, want[tick])
					}
				}
				got = got[:0]
			}
			if st := r.s.stats; st.PushBusy != skips || st.WriteBlock != 1 {
				t.Fatalf("busy skips %d, write blocks %d; want %d and 1", st.PushBusy, st.WriteBlock, skips)
			}
		})
	}
}

// TestSteadyTickDoesNotAllocate advances a held member set one tick period
// at a time, past the point where every table has reached its size: the
// tick's scratch is reused, so a tick and the deliveries it starts allocate
// nothing.
func TestSteadyTickDoesNotAllocate(t *testing.T) {
	cfg := Config{Backend: "epoll", FanoutSize: 32, Payload: 512, TickInterval: 10 * core.Millisecond, Seed: 3}
	r := newTickRig(t, cfg, 64, -1)
	next := core.Time(0)
	step := func() {
		next = next.Add(cfg.TickInterval)
		r.k.Sim.RunUntil(next)
	}
	for i := 0; i < 50; i++ {
		step()
	}
	pushed := r.s.stats.Pushed
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a steady tick allocates %.1f times, want 0", allocs)
	}
	if r.s.stats.Pushed == pushed {
		t.Fatal("no push happened while measuring")
	}
}
