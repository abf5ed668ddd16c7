package experiments

import (
	"fmt"

	"repro/internal/compio"
	"repro/internal/devpoll"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/hybrid"
)

// variant is one configuration within an ablation: a curve that runs once,
// at the ablation's operating point, on the sweep's connection count.
func variant(label string, server ServerKind, rate float64, inactive int) Curve {
	return Curve{Label: label, Spec: RunSpec{Server: server, RequestRate: rate, Inactive: inactive}}
}

// ablation is one design-choice study beyond the paper's figures: a
// variant-axis figure comparing a small set of configurations at a fixed,
// stressful operating point (high request rate, 501 inactive connections
// unless noted). The description takes the Paper field's place.
func ablation(id, title, description string, variants ...Curve) Figure {
	return Figure{
		ID: id, Title: title, Paper: description,
		Metric: MetricVariants, Axis: AxisVariant, X: []float64{0}, Curves: variants,
	}
}

// Ablations returns the ablation studies listed in DESIGN.md. Their curves
// pin no connection count, so a run uses the sweep's (4000 by default).
func Ablations() []Figure {
	// with returns the curve with its template edited.
	with := func(c Curve, edit func(*RunSpec)) Curve {
		edit(&c.Spec)
		return c
	}

	noHints := devpoll.DefaultOptions()
	noHints.UseHints = false
	noMmap := devpoll.DefaultOptions()
	noMmap.UseMmap = false
	// The hybrid studies run under the slow-loris background: its 501
	// trickling descriptors keep the RT signal queue deep enough for the
	// hybrid to switch mechanisms, which on the constant workload it never
	// does at these rates.
	loris := func(c Curve) Curve { return with(c, func(s *RunSpec) { s.Workload = "slowloris" }) }
	earlyCfg := hybrid.DefaultConfig()
	earlyCfg.HighWater = 32
	lateCfg := hybrid.DefaultConfig()
	lateCfg.HighWater = lateCfg.QueueLimit

	// compio batch-size sweep: the copy configuration is held fixed
	// (registered buffers on, the default) while the SQ size — the number of
	// submissions one Enter amortises over — sweeps from no batching to deep
	// batching.
	compioBatch := func(sqSize int) Curve {
		opts := compio.DefaultOptions()
		opts.SQSize = sqSize
		return with(variant(fmt.Sprintf("sq-%d", sqSize), ServerThttpdCompio, 1300, 501),
			func(s *RunSpec) { s.CompioOptions = &opts })
	}

	// compio copy-avoidance: the batch configuration is held fixed (default
	// SQ) while registered buffers toggle, isolating the per-read copy skip.
	compioCopy := func(label string, registered bool) Curve {
		opts := compio.DefaultOptions()
		opts.RegisteredBuffers = registered
		return with(variant(label, ServerThttpdCompio, 1300, 501),
			func(s *RunSpec) { s.CompioOptions = &opts })
	}

	// Persistent-connection hot path, one axis at a time on keep-alive epoll.
	keepalive := func(label string, http httpcore.Options, reqs, depth int) Curve {
		return with(variant(label, ServerThttpdEpoll, 1300, 501), func(s *RunSpec) {
			s.HTTP = http
			s.Client.RequestsPerConn = reqs
			s.Client.PipelineDepth = depth
		})
	}
	kaOn := httpcore.Options{KeepAlive: true}
	pipelined := func(depth int) Curve {
		return keepalive(fmt.Sprintf("depth-%d", depth), kaOn, 16, depth)
	}
	cached := func(label string, kb int) Curve {
		return keepalive(label, httpcore.Options{KeepAlive: true, CacheKB: kb}, KeepAliveRequests, 0)
	}
	writePath := func(m httpcore.WriteMode) Curve {
		return keepalive(m.String(), httpcore.Options{KeepAlive: true, WriteMode: m}, KeepAliveRequests, 0)
	}

	return []Figure{
		ablation("hints",
			"Device-driver hints on vs off (/dev/poll, 900 req/s, 501 inactive)",
			"Quantifies §3.2: hints let DP_POLL skip the per-descriptor driver callback for idle connections.",
			variant("hints-on", ServerThttpdDevPoll, 900, 501),
			with(variant("hints-off", ServerThttpdDevPoll, 900, 501), func(s *RunSpec) { s.DevPollOptions = &noHints })),
		ablation("mmap",
			"mmap'd result area on vs off (/dev/poll, 1000 req/s, 501 inactive)",
			"Quantifies §3.3: the shared result area removes the per-ready-descriptor copy-out.",
			variant("mmap-on", ServerThttpdDevPoll, 1000, 501),
			with(variant("mmap-off", ServerThttpdDevPoll, 1000, 501), func(s *RunSpec) { s.DevPollOptions = &noMmap })),
		ablation("sigtimedwait4",
			"sigwaitinfo vs sigtimedwait4 batch dequeue (phhttpd, 900 req/s, 251 inactive)",
			"Quantifies the paper's §6 proposal to dequeue RT signals in groups rather than one per system call.",
			variant("sigwaitinfo", ServerPhhttpd, 900, 251),
			with(variant("sigtimedwait4", ServerPhhttpd, 900, 251), func(s *RunSpec) { s.PhhttpdBatchDequeue = true })),
		ablation("queue-limit",
			"RT signal queue limit 128 vs 4096 (phhttpd, 1000 req/s, 501 inactive)",
			"Explores §4's load-threshold idea: a small queue forces early overflow recovery, a large one defers it.",
			with(variant("limit-128", ServerPhhttpd, 1000, 501), func(s *RunSpec) { s.RTQueueLimit = 128 }),
			with(variant("limit-4096", ServerPhhttpd, 1000, 501), func(s *RunSpec) { s.RTQueueLimit = 4096 })),
		ablation("hybrid-threshold",
			"Hybrid crossover threshold: early vs at-queue-limit (slowloris, 1000 req/s, 501 inactive)",
			"Evaluates the crossover-point question of §4 using the hybrid server the paper could not build: a 32-deep threshold switches to /dev/poll, one at the queue limit stays on RT signals.",
			loris(with(variant("switch-early", ServerHybrid, 1000, 501), func(s *RunSpec) { s.HybridConfig = &earlyCfg })),
			loris(with(variant("switch-at-limit", ServerHybrid, 1000, 501), func(s *RunSpec) { s.HybridConfig = &lateCfg }))),
		ablation("hybrid-vs-phhttpd",
			"Hybrid server vs phhttpd under overload (slowloris, 1000 req/s, 501 inactive)",
			"Tests §6's claim that maintaining kernel interest state concurrently with RT signal activity makes mode switching cheap.",
			loris(variant("hybrid", ServerHybrid, 1000, 501)),
			loris(variant("phhttpd", ServerPhhttpd, 1000, 501))),
		ablation("epoll-trigger-mode",
			"epoll level-triggered vs edge-triggered (1000 req/s, 501 inactive)",
			"Compares the two epoll delivery modes on the shared interest engine: LT re-validates ready descriptors with the driver, ET delivers each transition once without re-polling.",
			variant("level-triggered", ServerThttpdEpoll, 1000, 501),
			variant("edge-triggered", ServerThttpdEpollET, 1000, 501)),
		ablation("epoll-vs-devpoll",
			"epoll vs /dev/poll under heavy inactive load (1000 req/s, 501 inactive)",
			"The successor mechanism against the paper's: epoll's O(ready) wait versus /dev/poll's O(registered) hint-check scan.",
			variant("epoll", ServerThttpdEpoll, 1000, 501),
			variant("devpoll", ServerThttpdDevPoll, 1000, 501)),
		ablation("compio-batch",
			"compio Enter batch size: SQ 1/4/16/64 (1300 req/s, 501 inactive)",
			"Isolates submission-batch amortisation: one syscall entry per Enter is spread over SQSize submissions, the completion-side decomposition the paper's §3-4 performs for /dev/poll's interest updates. The copy configuration is held fixed.",
			compioBatch(1), compioBatch(4), compioBatch(16), compioBatch(64)),
		ablation("compio-regbuf",
			"compio registered buffers on vs off (1300 req/s, 501 inactive)",
			"Isolates copy avoidance: fixed pre-pinned buffers skip exactly the per-read user-space copy charge (Cost.SockReadCopy), the mmap-result-area argument of §3.3 applied to data instead of events. The batch configuration is held fixed.",
			compioCopy("registered", true), compioCopy("unregistered", false)),
		ablation("hybrid-bulk-mechanism",
			"Hybrid bulk poller: /dev/poll vs epoll (slowloris, 1000 req/s, 501 inactive)",
			"Swaps the hybrid server's load-time mechanism, possible only because both maintain the shared kernel-resident interest set concurrently with RT signal activity. Both variants switch to their bulk poller.",
			loris(variant("bulk-devpoll", ServerHybrid, 1000, 501)),
			loris(variant("bulk-epoll", ServerHybridEpoll, 1000, 501))),
		ablation("keepalive",
			"HTTP/1.0 close-per-request vs HTTP/1.1 keep-alive (epoll, 1300 req/s, 501 inactive)",
			"The tentpole axis: eight requests per connection amortise the accept, the interest-set registration and the close. Serial keep-alive trades a sliver of reply rate for a much better median (each request waits a client round trip); pipelining the same eight requests recovers the rate and keeps the latency win.",
			variant("http10", ServerThttpdEpoll, 1300, 501),
			keepalive("keepalive-8", kaOn, KeepAliveRequests, 0),
			keepalive("pipelined-8", kaOn, KeepAliveRequests, KeepAliveRequests)),
		ablation("pipeline-depth",
			"Pipeline depth 1 vs 4 vs 16 (keep-alive epoll, 16 req/conn, 1300 req/s, 501 inactive)",
			"Pipelining removes the client round trip between a connection's requests; the server's bounded per-dispatch batch caps how much a deeper pipeline can add.",
			pipelined(1), pipelined(4), pipelined(16)),
		ablation("cache-size",
			"Response cache off / 4KB / 64KB / 1MB (keep-alive epoll, 1300 req/s, 501 inactive)",
			"cache-off is the legacy no-file-charge model; a cache smaller than the 6KB document pays open-plus-page-reads on every request (uncacheable), any sufficient size serves hits from the mmap'd cache.",
			cached("cache-off", 0), cached("cache-4kb", 4), cached("cache-64kb", 64), cached("cache-1mb", 1024)),
		ablation("write-path",
			"Write path copy vs writev vs sendfile (keep-alive epoll, 1300 req/s, 501 inactive)",
			"Two-write copy pays the user-space copy and an extra syscall per response, writev folds header and body into one charge, sendfile skips the user-space copy and charges per page.",
			writePath(httpcore.WriteCopy), writePath(httpcore.WriteWritev), writePath(httpcore.WriteSendfile)),
	}
}
