package httpcore

import (
	"testing"

	"repro/internal/eventlib"
	"repro/internal/httpsim"
)

// attachLoop wires the env's handler onto a poll-backed event base. The base
// is never dispatched — tests drive the loop's callbacks directly to pin
// their semantics; the end-to-end paths run in the server packages.
func attachLoop(t *testing.T, e *env) *EventLoop {
	t.Helper()
	var loop *EventLoop
	e.p.Batch(e.k.Now(), func() {
		poller, _, err := eventlib.OpenBackend(e.k, e.p, "poll")
		if err != nil {
			t.Fatal(err)
		}
		base := eventlib.NewWithPoller(e.k, e.p, poller, eventlib.Config{})
		loop = e.handler.Attach(base, e.lfd, ServeConfig{})
	}, nil)
	e.k.Sim.Run()
	return loop
}

// TestDeferredPipelineResumesThroughTimer: a deferral queues the descriptor
// and arms the zero-delay resume timer; firing it continues the pipeline, and
// a continuation that re-exhausts its budget re-defers onto a fresh queue.
func TestDeferredPipelineResumesThroughTimer(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	loop := attachLoop(t, e)

	const kept = 2 * PipelineBatch
	var payload []byte
	for i := 0; i < kept; i++ {
		payload = append(payload, httpsim.FormatRequest11("/index.html", false)...)
	}
	payload = append(payload, httpsim.FormatRequest11("/index.html", true)...)
	_, probe := e.connectAndSend(t, payload)
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range e.handler.AcceptAll(e.k.Now(), e.lfd) {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()

	if st := e.handler.Stats; st.Served != PipelineBatch {
		t.Fatalf("after first dispatch: %+v", st)
	}
	if len(loop.resumeQ) != 1 || loop.resume == nil || !loop.resume.Pending() {
		t.Fatalf("resume timer not armed: q=%v", loop.resumeQ)
	}

	// First firing serves the next budget's worth and re-defers the rest.
	e.p.Batch(e.k.Now(), func() { loop.onResume(0, eventlib.EvTimeout, e.k.Now()) }, nil)
	e.k.Sim.Run()
	if st := e.handler.Stats; st.Served != kept {
		t.Fatalf("after first resume: %+v", st)
	}
	if len(loop.resumeQ) != 1 {
		t.Fatalf("re-deferral missing: q=%v", loop.resumeQ)
	}

	// Second firing drains the pipeline; the close request ends it.
	e.p.Batch(e.k.Now(), func() { loop.onResume(0, eventlib.EvTimeout, e.k.Now()) }, nil)
	e.k.Sim.Run()
	if st := e.handler.Stats; st.Served != kept+1 || st.Closed != 1 {
		t.Fatalf("final stats = %+v", st)
	}
	if len(loop.resumeQ) != 0 {
		t.Fatalf("resume queue not drained: %v", loop.resumeQ)
	}
	if want := kept*sizeKA + sizeClose; probe.bytes != want || !probe.closed {
		t.Fatalf("probe = %+v, want %d bytes", probe, want)
	}
}
