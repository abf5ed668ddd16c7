package faults_test

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/faults"
)

func spec(server experiments.ServerKind, f faults.Config) experiments.RunSpec {
	s := experiments.DefaultSpec(server, 900, 251)
	s.Faults = f
	return s
}

// The deterministic fault plane and graceful degradation.
//
// This example runs two fault episodes against the benchmark harness and
// itemises what each one cost. First a descriptor-limit (EMFILE) episode: the
// process fd limit is squeezed until accept fails, and the server survives by
// the classic reserve-descriptor trick — close the reserve, accept the waiting
// connection into the freed slot, close it immediately, reopen the reserve —
// plus a paced backoff that keeps the accept loop from spinning. Then a reset
// storm: a deterministic fraction of connections RST mid-exchange (half while
// the request is still arriving, half while the response drains), and the
// server unwinds each without leaking a descriptor, a pooled connection or a
// timer. The storm is run twice, once with plain clients and once with the
// load generator's capped-exponential-backoff retry, showing how much of the
// damage client-side retry absorbs.
//
// Every fault decision is a seeded hash, and every failed operation charges
// the cost model like the real failed syscall (a failed accept still pays its
// syscall entry; a shed connection pays the accept, the close and the reserve
// reopen; an RST read pays the read that returned ECONNRESET), so the books
// below are bit-identical on every run and any -threads count.
func ExampleConfig() {
	// --- Episode 1: EMFILE on thttpd/poll ----------------------------------
	// 251 inactive connections pin descriptors; a 270-fd process limit leaves
	// so little headroom that bursts of active connections hit EMFILE. A dash
	// of injected accept-EAGAIN exercises the other survival tool: the paced
	// retry timer that keeps a stalled accept loop from spinning.
	healthy := experiments.Run(spec(experiments.ServerThttpdPoll, faults.Config{}))
	limited := experiments.Run(spec(experiments.ServerThttpdPoll,
		faults.Config{Seed: 1, FDLimit: 270, AcceptEAGAINRate: 0.25}))

	fmt.Println("EMFILE episode: thttpd/poll, 251 inactive, fd limit 270 (vs unlimited):")
	fmt.Printf("  %-34s %12s %12s\n", "", "unlimited", "fd limit 270")
	row := func(label string, a, b interface{}) {
		fmt.Printf("  %-34s %12v %12v\n", label, a, b)
	}
	row("replies/s", fmt.Sprintf("%.1f", healthy.Load.ReplyRate.Mean), fmt.Sprintf("%.1f", limited.Load.ReplyRate.Mean))
	row("p99 connection ms", fmt.Sprintf("%.2f", healthy.Latency.P99), fmt.Sprintf("%.2f", limited.Latency.P99))
	row("completed", healthy.Load.Completed, limited.Load.Completed)
	row("errors", healthy.Load.Errors, limited.Load.Errors)
	row("reserve-fd sheds (EmfileSheds)", healthy.Server.EmfileSheds, limited.Server.EmfileSheds)
	row("paced backoffs (AcceptBackoffs)", healthy.Server.AcceptBackoffs, limited.Server.AcceptBackoffs)
	row("cpu utilisation", fmt.Sprintf("%.3f", healthy.CPUUtilization), fmt.Sprintf("%.3f", limited.CPUUtilization))
	fmt.Println("  every shed charged its failed accept, the reserve close, the drain")
	fmt.Println("  accept, the immediate close and the reserve reopen — survival is")
	fmt.Println("  priced, not free; the paced backoff keeps the loop from spinning.")
	fmt.Println()

	// --- Episode 2: a reset storm on thttpd/epoll --------------------------
	// 15% of connections are doomed at birth (seeded hash of the connection
	// id): half RST mid-request, half mid-response. Run it against plain
	// clients, then against clients that retry with capped exponential
	// backoff and seeded jitter.
	storm := faults.Config{Seed: 1, ResetRate: 0.15}
	plain := experiments.Run(spec(experiments.ServerThttpdEpoll, storm))
	withRetry := spec(experiments.ServerThttpdEpoll, storm)
	withRetry.Client.Retry = true
	retried := experiments.Run(withRetry)

	fmt.Println("Reset storm: thttpd/epoll, ResetRate 0.15, plain vs retrying clients:")
	fmt.Printf("  %-34s %12s %12s\n", "", "plain", "with -retry")
	row("replies/s", fmt.Sprintf("%.1f", plain.Load.ReplyRate.Mean), fmt.Sprintf("%.1f", retried.Load.ReplyRate.Mean))
	row("completed", plain.Load.Completed, retried.Load.Completed)
	row("client errors", plain.Load.Errors, retried.Load.Errors)
	row("client retries", plain.Load.Retries, retried.Load.Retries)
	row("server resets booked", plain.Server.Resets, retried.Server.Resets)
	row("p99 connection ms", fmt.Sprintf("%.2f", plain.Latency.P99), fmt.Sprintf("%.2f", retried.Latency.P99))
	fmt.Println("  each reset charged the syscall that observed it (ECONNRESET on the")
	fmt.Println("  read path, EPIPE on the draining write) plus the ordinary close; a")
	fmt.Println("  retried connection keeps its original start time, so the p99 above")
	fmt.Println("  honestly includes the backoff waits the retries inserted.")

	// Conservation holds in every scenario: nothing is double-booked and
	// nothing vanishes, faults or no faults.
	for _, r := range []experiments.RunResult{healthy, limited, plain, retried} {
		if r.Load.Completed+r.Load.Errors != r.Load.Issued {
			fmt.Printf("BOOKS DO NOT BALANCE: %+v\n", r.Load)
		}
	}

	// Output:
	// EMFILE episode: thttpd/poll, 251 inactive, fd limit 270 (vs unlimited):
	//                                         unlimited fd limit 270
	//   replies/s                                 804.8        794.0
	//   p99 connection ms                        419.36       180.91
	//   completed                                  3852         3662
	//   errors                                      148          338
	//   reserve-fd sheds (EmfileSheds)                0          122
	//   paced backoffs (AcceptBackoffs)               0          774
	//   cpu utilisation                           0.964        0.967
	//   every shed charged its failed accept, the reserve close, the drain
	//   accept, the immediate close and the reserve reopen — survival is
	//   priced, not free; the paced backoff keeps the loop from spinning.
	//
	// Reset storm: thttpd/epoll, ResetRate 0.15, plain vs retrying clients:
	//                                             plain  with -retry
	//   replies/s                                 759.9        801.8
	//   completed                                  3377         4000
	//   client errors                               623            0
	//   client retries                                0          748
	//   server resets booked                        342          405
	//   p99 connection ms                          2.01       353.62
	//   each reset charged the syscall that observed it (ECONNRESET on the
	//   read path, EPIPE on the draining write) plus the ordinary close; a
	//   retried connection keeps its original start time, so the p99 above
	//   honestly includes the backoff waits the retries inserted.
}
