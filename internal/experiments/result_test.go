package experiments

import (
	"reflect"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/servers/httpcore"
)

// A finished run's result is a pure read of its books: reading it twice —
// the generator's Result and the rest of RunE's assembly, with a prefork
// server's Stats.Add sum over its workers — returns equal values. One small
// run of each traffic family; the request family also on two prefork
// workers and with a pipelined keep-alive client.
func TestResultIsAPureRead(t *testing.T) {
	for _, spec := range []RunSpec{
		{Server: ServerThttpdPoll, RequestRate: 1000, Inactive: 501, Connections: 600},
		{Server: PreforkKind(2), RequestRate: 1000, Inactive: 251, Connections: 600},
		{Server: ServerThttpdEpoll, RequestRate: 1300, Inactive: 251, Connections: 600,
			HTTP: httpcore.Options{KeepAlive: true}, Client: loadgen.ClientProfile{RequestsPerConn: 8, PipelineDepth: 4}},
		{Server: "push-epoll", Workload: "push", RequestRate: 1600, Connections: 500},
		{Server: "dht-epoll", Workload: "dhtchurn", RequestRate: 1000, Connections: 200},
	} {
		spec.Seed = 1
		r, err := startRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.k.Sim.RunUntil(r.deadline)
		if !r.gen.Done() {
			t.Fatalf("%s: the run did not finish", spec.Server)
		}
		if a, b := r.gen.Result(), r.gen.Result(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two Result calls differ:\n%+v\n%+v", spec.Server, a, b)
		}
		if a, b := r.result(), r.result(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two result assemblies differ:\n%+v\n%+v", spec.Server, a, b)
		}
	}
}
