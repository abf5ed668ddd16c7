package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/simkernel"
)

// A traced child runs the workload under two tracers, both attached from
// outside the program: spans at the core.Poller boundary of the epoll and
// poll backends, and a CPU profile attributed to the innermost
// repro/internal/<pkg> frame of each sample.

// tracedBackends maps each wrapped registry backend to the layer (internal
// package) that implements it.
var tracedBackends = []struct{ backend, layer string }{
	{"epoll", "epoll"},
	{"poll", "stockpoll"},
}

// profileLayers are the internal packages the profile reports self time for.
// Samples whose innermost repository frame lies in another package count as
// unlisted; the coverage check bounds their share. thttpd, rcache and
// experiments are not listed: no workload spends a profile sample in them.
var profileLayers = []string{
	"simkernel", "interest", "stockpoll", "epoll", "eventlib", "netsim", "httpsim",
	"httpcore", "pushcore", "loadgen", "metrics",
}

// The two buckets for samples with no repository frame on their stack.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "runtime.other"
)

// spanStats are the wall-clock totals of one poller's spans. Wait and ctl
// (Add/Modify/Remove) times are self times; the handler is the Wait callback,
// timed inclusive and minus the poller spans nested inside it.
type spanStats struct {
	WaitCalls     int64 `json:"wait_calls"`
	WaitNs        int64 `json:"wait_ns"`
	CtlCalls      int64 `json:"ctl_calls"`
	CtlNs         int64 `json:"ctl_ns"`
	HandlerCalls  int64 `json:"handler_calls"`
	HandlerNs     int64 `json:"handler_ns"`
	HandlerSelfNs int64 `json:"handler_self_ns"`
}

func (s *spanStats) add(o spanStats) {
	s.WaitCalls += o.WaitCalls
	s.WaitNs += o.WaitNs
	s.CtlCalls += o.CtlCalls
	s.CtlNs += o.CtlNs
	s.HandlerCalls += o.HandlerCalls
	s.HandlerNs += o.HandlerNs
	s.HandlerSelfNs += o.HandlerSelfNs
}

// traceResult is what a traced child reports.
type traceResult struct {
	// Spans holds the poller spans summed per layer.
	Spans map[string]spanStats `json:"spans"`
	// Samples counts CPU-profile samples per bucket: a layer, another
	// internal package, runtime.gc or runtime.other.
	Samples map[string]int64 `json:"samples"`
	// CPUNs is the process CPU time over the profiled RunE.
	CPUNs int64 `json:"cpu_ns"`
}

// tracer collects the wrappers the registry handed out during one run.
type tracer struct {
	pollers []*tracedPoller
}

// installTracer replaces the traced backends in the eventlib registry, in
// place, with wrappers that keep the backend's name, rank and flags. The
// returned function restores the original backends.
func installTracer() (*tracer, func()) {
	tr := &tracer{}
	var saved []eventlib.Backend
	for _, tb := range tracedBackends {
		b, ok := eventlib.Lookup(tb.backend)
		if !ok {
			panic("bench: backend " + tb.backend + " is not registered")
		}
		saved = append(saved, b)
		open, layer := b.Open, tb.layer
		b.Open = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			tp := newTracedPoller(open(k, p), layer)
			tr.pollers = append(tr.pollers, tp)
			return tp
		}
		eventlib.Register(b)
	}
	return tr, func() {
		for _, b := range saved {
			eventlib.Register(b)
		}
	}
}

// result sums the span counters per layer; it is read after the run, when the
// lanes that wrote them have stopped.
func (tr *tracer) result(samples map[string]int64, cpu time.Duration) *traceResult {
	out := &traceResult{Spans: map[string]spanStats{}, Samples: samples, CPUNs: int64(cpu)}
	for _, tp := range tr.pollers {
		s := out.Spans[tp.layer]
		s.add(tp.spanStats)
		out.Spans[tp.layer] = s
	}
	return out
}

var traceEpoch = time.Now()

func monoNow() int64 { return int64(time.Since(traceEpoch)) }

// tracedPoller wraps a poller and times every call at the core.Poller
// boundary. Name, Interested, Len and Close pass through untimed. A poller is
// only ever driven from its process's lane, so its counters need no locking.
type tracedPoller struct {
	core.Poller
	layer string

	// handler is the caller's Wait callback, and onReady the pre-bound
	// wrapper handed to the inner Wait in its place, so that a Wait
	// allocates nothing.
	handler func(events []core.Event, now core.Time)
	onReady func(events []core.Event, now core.Time)

	// child[d] accumulates the time of spans nested in the open span at
	// depth d; depth 0 is the top level.
	child [8]int64
	depth int

	spanStats
}

func newTracedPoller(inner core.Poller, layer string) *tracedPoller {
	tp := &tracedPoller{Poller: inner, layer: layer}
	tp.onReady = tp.ready
	return tp
}

func (tp *tracedPoller) begin() int64 {
	tp.depth++
	tp.child[tp.depth] = 0
	return monoNow()
}

// end closes the innermost open span, returning its inclusive time and its
// self time (inclusive minus nested spans).
func (tp *tracedPoller) end(start int64) (incl, self int64) {
	incl = monoNow() - start
	self = incl - tp.child[tp.depth]
	tp.depth--
	tp.child[tp.depth] += incl
	return incl, self
}

func (tp *tracedPoller) endCtl(start int64) {
	_, self := tp.end(start)
	tp.CtlCalls++
	tp.CtlNs += self
}

// Add implements core.Poller.
func (tp *tracedPoller) Add(fd int, events core.EventMask) error {
	start := tp.begin()
	err := tp.Poller.Add(fd, events)
	tp.endCtl(start)
	return err
}

// Modify implements core.Poller.
func (tp *tracedPoller) Modify(fd int, events core.EventMask) error {
	start := tp.begin()
	err := tp.Poller.Modify(fd, events)
	tp.endCtl(start)
	return err
}

// Remove implements core.Poller.
func (tp *tracedPoller) Remove(fd int) error {
	start := tp.begin()
	err := tp.Poller.Remove(fd)
	tp.endCtl(start)
	return err
}

// Wait implements core.Poller. eventlib keeps at most one Wait in flight per
// poller, so one handler field suffices.
func (tp *tracedPoller) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	tp.handler = handler
	start := tp.begin()
	tp.Poller.Wait(max, timeout, tp.onReady)
	_, self := tp.end(start)
	tp.WaitCalls++
	tp.WaitNs += self
}

func (tp *tracedPoller) ready(events []core.Event, now core.Time) {
	handler := tp.handler
	start := tp.begin()
	handler(events, now)
	incl, self := tp.end(start)
	tp.HandlerCalls++
	tp.HandlerNs += incl
	tp.HandlerSelfNs += self
}

// MechanismStats implements core.StatsSource by forwarding, so the run's
// mechanism counters are unchanged by the wrapper.
func (tp *tracedPoller) MechanismStats() core.Stats {
	if src, ok := tp.Poller.(core.StatsSource); ok {
		return src.MechanismStats()
	}
	return core.Stats{}
}

// attributeProfile decodes a gzipped pprof CPU profile and counts its samples
// by bucket: the innermost repro/internal/<pkg> frame on the stack, so that
// mallocgc or a sort counts against the layer that called it; GC workers as
// runtime.gc; anything else as runtime.other.
func attributeProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for _, s := range p.samples {
		counts[p.bucket(s.locs)] += s.count
	}
	return counts, nil
}

// repoLayer returns the last element of a repro/internal package path from a
// symbol name ("repro/internal/servers/thttpd.(*Server).Start.func1" gives
// "thttpd"), or "" for symbols outside the repository's internal packages.
func repoLayer(name string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(name, prefix) {
		return ""
	}
	path := name
	if i := strings.IndexAny(path, "[("); i >= 0 {
		path = path[:i]
	}
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	return path[strings.LastIndex(path, "/")+1:]
}

func isGCFrame(name string) bool {
	return strings.HasPrefix(name, "runtime.gc") || name == "runtime.bgsweep" || name == "runtime.bgscavenge"
}

// profile is the part of a pprof profile.proto the attribution reads.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> string table index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	samples  []profileSample
}

type profileSample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) bucket(locs []uint64) string {
	gc := false
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			idx := p.funcName[fn]
			if idx < 0 || idx >= int64(len(p.strings)) {
				continue
			}
			name := p.strings[idx]
			if layer := repoLayer(name); layer != "" {
				return layer
			}
			gc = gc || isGCFrame(name)
		}
	}
	if gc {
		return bucketGC
	}
	return bucketOther
}

var errProto = errors.New("bench: malformed CPU profile")

// pb reads protobuf wire format.
type pb struct {
	b   []byte
	err error
}

func (r *pb) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errProto
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = errProto
	return 0
}

// next reads a field key; it reports false at the end of the message or on
// an error.
func (r *pb) next() (field, wire int, ok bool) {
	if r.err != nil || len(r.b) == 0 {
		return 0, 0, false
	}
	k := r.varint()
	return int(k >> 3), int(k & 7), r.err == nil
}

func (r *pb) bytes() []byte {
	n := r.varint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errProto
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *pb) skip(wire int) {
	n := 0
	switch wire {
	case 0:
		r.varint()
		return
	case 1:
		n = 8
	case 2:
		r.bytes()
		return
	case 5:
		n = 4
	default:
		r.err = errProto
		return
	}
	if len(r.b) < n {
		r.err = errProto
		return
	}
	r.b = r.b[n:]
}

// uints appends a repeated integer field, packed or not.
func (r *pb) uints(wire int, dst []uint64) []uint64 {
	if wire != 2 {
		return append(dst, r.varint())
	}
	sub := pb{b: r.bytes()}
	for len(sub.b) > 0 && sub.err == nil {
		dst = append(dst, sub.varint())
	}
	if sub.err != nil {
		r.err = sub.err
	}
	return dst
}

// parseProfile decodes the fields of profile.proto the attribution needs:
// samples (2), locations (4), functions (5) and the string table (6).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	r := pb{b: raw}
	for {
		field, wire, ok := r.next()
		if !ok {
			break
		}
		switch {
		case field == 2 && wire == 2:
			m := pb{b: r.bytes()}
			var s profileSample
			var values []uint64
			for {
				f, w, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					values = m.uints(w, values)
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2:
			m := pb{b: r.bytes()}
			var id uint64
			var fns []uint64
			for {
				f, w, ok := m.next()
				if !ok {
					break
				}
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2:
					line := pb{b: m.bytes()}
					for {
						lf, lw, ok := line.next()
						if !ok {
							break
						}
						if lf == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					if line.err != nil {
						return nil, line.err
					}
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.locFuncs[id] = fns
		case field == 5 && wire == 2:
			m := pb{b: r.bytes()}
			var id uint64
			var name int64
			for {
				f, w, ok := m.next()
				if !ok {
					break
				}
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.funcName[id] = name
		case field == 6 && wire == 2:
			p.strings = append(p.strings, string(r.bytes()))
		default:
			r.skip(wire)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
