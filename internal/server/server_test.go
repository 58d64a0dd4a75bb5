package server

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// pipeListener hands Serve the server ends of net.Pipe connections, so
// the tests drive a real conn — reader, writer, gating, teardown —
// without a socket.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// peer is the client end of one piped connection.
type peer struct {
	t  *testing.T
	nc net.Conn
	id uint64
}

// serve starts srv on a pipe listener and returns a dialer for it.
func serve(t *testing.T, srv *Server) func() *peer {
	t.Helper()
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return func() *peer {
		client, server := net.Pipe()
		ln.conns <- server
		t.Cleanup(func() { client.Close() })
		client.SetDeadline(time.Now().Add(10 * time.Second))
		return &peer{t: t, nc: client}
	}
}

// roundTrip sends one request and returns the response carrying its id,
// skipping job notifications.
func (p *peer) roundTrip(req *wire.Request) *wire.Response {
	p.t.Helper()
	if err := wire.EncodeRequest(p.nc, req); err != nil {
		p.t.Fatalf("send: %v", err)
	}
	for {
		resp, err := wire.DecodeResponse(p.nc)
		if err != nil {
			p.t.Fatalf("receive: %v", err)
		}
		if resp.Event == nil {
			return resp
		}
	}
}

// do sends one command under a fresh id and returns the wire error code
// ("" on success) and the whole response.
func (p *peer) do(cmd command.Command) (string, *wire.Response) {
	p.t.Helper()
	data, err := command.MarshalCommand(cmd)
	if err != nil {
		p.t.Fatal(err)
	}
	p.id++
	resp := p.roundTrip(&wire.Request{ID: p.id, Command: data})
	if resp.ID != p.id {
		p.t.Fatalf("response id %d, want %d", resp.ID, p.id)
	}
	if resp.Error != nil {
		return resp.Error.Code, resp
	}
	return "", resp
}

func openSystem(t *testing.T, o core.Options) *core.System {
	t.Helper()
	o.Arch = arch.DefaultConfig()
	o.Workers = 1
	sys, err := core.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

var (
	generate = command.GenerateGrid{Name: "g", NX: 4, NY: 2, W: 4, H: 2, ClampLeft: true}
	storeG   = command.Store{Model: "g"}
	listDB   = command.List{What: command.ListDB}
)

func TestDrainingGate(t *testing.T) {
	srv := New(openSystem(t, core.Options{}), Config{})
	p := serve(t, srv)()
	if code, _ := p.do(generate); code != "" {
		t.Fatalf("generate before drain: %q", code)
	}
	srv.draining.Store(true)
	for _, cmd := range []command.Command{generate, storeG, command.Retrieve{Name: "g"},
		command.Submit{Cmd: listDB}, command.Restore{Path: "x"}} {
		if code, resp := p.do(cmd); code != wire.CodeDraining || resp.Result != nil {
			t.Errorf("%q while draining: code %q, want %q and no result", cmd, code, wire.CodeDraining)
		}
	}
	// Reads, health and job control keep answering.
	for _, cmd := range []command.Command{command.Ping{}, listDB, command.Jobs{},
		command.Display{What: command.DisplayModel, Model: "g"}} {
		if code, _ := p.do(cmd); code != "" {
			t.Errorf("%q while draining: refused with %q", cmd, code)
		}
	}
	if code, _ := p.do(command.Cancel{ID: 99}); code != wire.CodeNotFound {
		t.Errorf("cancel of an unknown job while draining: %q, want it served (%q)", code, wire.CodeNotFound)
	}
}

func TestDegradedGate(t *testing.T) {
	in := fault.NewInjector(1,
		fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}},
		fault.Rule{Op: fault.OpBatch, Fault: fault.Fault{Err: fault.ErrIO}})
	in.Disarm()
	sys := openSystem(t, core.Options{
		Store: store.Config{Wrap: fault.WrapStore(in)},
		Guard: store.GuardOpts{ProbeInterval: -1},
	})
	p := serve(t, New(sys, Config{}))()
	for _, cmd := range []command.Command{generate, storeG} {
		if code, _ := p.do(cmd); code != "" {
			t.Fatalf("%q on a healthy store: %q", cmd, code)
		}
	}
	in.Arm()
	for i := 0; i < store.GuardThreshold; i++ {
		if err := sys.Store.Put("x", nil); err == nil {
			t.Fatalf("write %d on a failing store succeeded", i)
		}
	}
	if !sys.Degraded() {
		t.Fatalf("not degraded after %d failed writes", store.GuardThreshold)
	}
	for _, cmd := range []command.Command{generate, storeG, command.Delete{Name: "g"}, command.Submit{Cmd: listDB}} {
		if code, _ := p.do(cmd); code != wire.CodeDegraded {
			t.Errorf("%q while degraded: code %q, want %q", cmd, code, wire.CodeDegraded)
		}
	}
	// Degraded is read-only, not read-never: retrieve still loads from the
	// store, and the in-memory job table still takes a cancel.
	if code, resp := p.do(command.Retrieve{Name: "g"}); code != "" || resp.Result == nil {
		t.Errorf("retrieve while degraded: code %q, result %s", code, resp.Result)
	}
	if code, _ := p.do(command.Cancel{ID: 99}); code != wire.CodeNotFound {
		t.Errorf("cancel while degraded: %q, want it served (%q)", code, wire.CodeNotFound)
	}
}

func TestFollowerGate(t *testing.T) {
	sc := store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}
	member := func(name string) *core.System {
		return openSystem(t, core.Options{Store: sc,
			Cluster: &core.ClusterOpts{Owner: name, Advertise: name + ":1", TTL: time.Hour}})
	}
	leader, follower := member("a"), member("b")
	if leader.ClusterRole() != "leader" || follower.ClusterRole() != "follower" {
		t.Fatalf("roles: a=%s b=%s", leader.ClusterRole(), follower.ClusterRole())
	}
	p := serve(t, New(follower, Config{}))()
	welcome := p.roundTrip(&wire.Request{ID: 100, Hello: &wire.Hello{User: "eng", Proto: command.ProtocolVersion}}).Welcome
	if welcome == nil || welcome.Role != "follower" || welcome.Leader != "a:1" {
		t.Fatalf("follower welcome = %+v", welcome)
	}
	for _, cmd := range []command.Command{generate, storeG, command.Submit{Cmd: listDB}, command.Cancel{ID: 1}} {
		code, resp := p.do(cmd)
		if code != wire.CodeNotLeader || resp.Error.Leader != "a:1" {
			t.Errorf("%q on a follower: code %q leader %q, want %q pointing at a:1", cmd, code, resp.Error.Leader, wire.CodeNotLeader)
		}
	}
	// Followers exist to serve reads.
	for _, cmd := range []command.Command{listDB, command.Jobs{}, command.Ping{}} {
		if code, _ := p.do(cmd); code != "" {
			t.Errorf("%q on a follower: refused with %q", cmd, code)
		}
	}
	for _, cmd := range []command.Command{command.Status{ID: 99}, command.Retrieve{Name: "nosuch"}} {
		if code, _ := p.do(cmd); code != wire.CodeNotFound {
			t.Errorf("%q on a follower: %q, want it served (%q)", cmd, code, wire.CodeNotFound)
		}
	}
	// The same verbs are accepted by the leader.
	if code, _ := serve(t, New(leader, Config{}))().do(generate); code != "" {
		t.Errorf("generate on the leader: %q", code)
	}
}

func TestProtocolViolations(t *testing.T) {
	p := serve(t, New(openSystem(t, core.Options{}), Config{}))()
	ping, _ := command.MarshalCommand(command.Ping{})
	if resp := p.roundTrip(&wire.Request{ID: 0, Command: ping}); resp.Error == nil || resp.Error.Code != wire.CodeProto {
		t.Errorf("request id 0: %+v, want code %q", resp.Error, wire.CodeProto)
	}
	hello := &wire.Request{ID: 1, Hello: &wire.Hello{User: "eng", Proto: command.ProtocolVersion}}
	if resp := p.roundTrip(hello); resp.Welcome == nil || resp.Welcome.Session != "eng@conn-1" {
		t.Fatalf("first hello: %+v", resp)
	}
	hello.ID = 2
	if resp := p.roundTrip(hello); resp.Error == nil || resp.Error.Code != wire.CodeProto || resp.Welcome != nil {
		t.Errorf("second hello: %+v, want code %q", resp, wire.CodeProto)
	}
	// The connection survives both violations.
	if code, _ := p.do(command.Ping{}); code != "" {
		t.Errorf("ping after the violations: %q", code)
	}
	// A hello at the wrong revision is refused without a session.
	q := serve(t, New(openSystem(t, core.Options{}), Config{}))()
	old := &wire.Request{ID: 1, Hello: &wire.Hello{User: "eng", Proto: command.ProtocolVersion - 1}}
	if resp := q.roundTrip(old); resp.Error == nil || resp.Error.Code != wire.CodeProto {
		t.Errorf("hello at an old revision: %+v, want code %q", resp, wire.CodeProto)
	}
}

// brokenElement is a custom element whose stiffness indexes past a
// slice: the daemon-killing class PR 13 and 14 each fixed one instance
// of at source.
type brokenElement struct{ *fem.CST }

func (brokenElement) StiffnessInto(*fem.Model, *linalg.Dense) error {
	var dofs []int
	_ = dofs[6]
	return nil
}

// TestPanicBecomesErrorReply plants a panicking element in a
// connection's model and solves it both ways — synchronously on the
// request goroutine, and as a scheduled job on a worker.  Each panic
// must come back as an error (the internal code; a failed job), move
// server.panics by one, log its stack, and leave the connection and the
// daemon answering.
func TestPanicBecomesErrorReply(t *testing.T) {
	sys := openSystem(t, core.Options{})
	var mu sync.Mutex
	var logged []string
	srv := New(sys, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	dial := serve(t, srv)
	p := dial()
	for _, cmd := range []command.Command{generate, command.EndLoad{Model: "g", Set: "l", FY: -100}} {
		if code, resp := p.do(cmd); code != "" {
			t.Fatalf("%v: %+v", cmd, resp.Error)
		}
	}
	// The replies are in, so nothing else touches the session's model.
	m := sys.Session("anon@conn-1").WS.Model("g")
	m.Elements[3] = brokenElement{m.Elements[3].(*fem.CST)}
	panics := sys.Obs.Counter(obs.ServerPanics)
	solve := command.Solve{Model: "g", Set: "l"}

	code, resp := p.do(solve)
	if code != wire.CodeInternal || !strings.Contains(resp.Error.Message, `panic executing "solve"`) ||
		!strings.Contains(resp.Error.Message, "index out of range") {
		t.Fatalf("synchronous solve: %+v, want code %q carrying the panic text", resp.Error, wire.CodeInternal)
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("%s = %d after the synchronous solve, want 1", obs.ServerPanics, got)
	}

	code, resp = p.do(command.Submit{Cmd: solve})
	if code != "" {
		t.Fatalf("submit: %+v", resp.Error)
	}
	res, err := command.UnmarshalResult(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	id := res.(*command.SubmitResult).ID
	if code, resp = p.do(command.Wait{ID: id}); code != wire.CodeInternal || !strings.Contains(resp.Error.Message, "index out of range") {
		t.Errorf("wait on the panicked job: %+v, want code %q carrying the panic text", resp.Error, wire.CodeInternal)
	}
	if code, resp = p.do(command.Status{ID: id}); code != "" {
		t.Fatalf("status: %+v", resp.Error)
	}
	if res, err = command.UnmarshalResult(resp.Result); err != nil {
		t.Fatal(err)
	}
	if st := res.(*command.JobStatusResult); st.State != command.JobFailed || !strings.Contains(st.Error, "panic executing") {
		t.Errorf("status of the panicked job: %+v, want failed with the panic text", st)
	}
	if got := panics.Load(); got != 2 {
		t.Errorf("%s = %d after the scheduled solve, want 2", obs.ServerPanics, got)
	}

	// This connection, and a new one, still answer.
	if code, _ := p.do(command.Ping{}); code != "" {
		t.Errorf("ping after the panics: %q", code)
	}
	if code, _ := dial().do(command.Ping{}); code != "" {
		t.Errorf("ping on a new connection: %q", code)
	}
	mu.Lock()
	defer mu.Unlock()
	stacks := 0
	for _, line := range logged {
		if strings.Contains(line, "panic executing") && strings.Contains(line, "goroutine") {
			stacks++
		}
	}
	if stacks != 1 {
		t.Errorf("%d logged stacks from the request goroutine, want 1 (the job's goes to the scheduler's log): %q", stacks, logged)
	}
}

// TestFramesGeneralCountsNonCanonicalFrames verifies the traffic instead of
// guessing it: one frame per wire verb, as our encoder writes it, is read
// by the one-pass decoder (server.frames_general stays 0, handshake
// included); the same ping with one space in it is valid, goes down the
// general path, is counted, and is answered with the same bytes.
func TestFramesGeneralCountsNonCanonicalFrames(t *testing.T) {
	sys := openSystem(t, core.Options{})
	p := serve(t, New(sys, Config{}))()
	general := sys.Obs.Counter(obs.ServerFramesGeneral)
	if w := p.roundTrip(&wire.Request{ID: 100, Hello: &wire.Hello{User: "eng", Proto: command.ProtocolVersion}}).Welcome; w == nil {
		t.Fatal("no welcome")
	}
	raw, err := os.ReadFile("../command/testdata/verb_sets.golden")
	if err != nil {
		t.Fatal(err)
	}
	verbs := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		verb := strings.Fields(line)[0]
		var cmd command.Command = command.Submit{Cmd: command.Ping{}}
		if verb != "submit" {
			if cmd, err = command.UnmarshalCommand([]byte(fmt.Sprintf(`{"verb":%q}`, verb))); err != nil {
				t.Fatalf("%s: %v", verb, err)
			}
		}
		if verb == "quit" {
			continue // ends the connection; it is one more empty body
		}
		verbs++
		p.id++
		if resp := p.roundTrip(&wire.Request{ID: p.id, Cmd: cmd}); resp.ID != p.id {
			t.Fatalf("%s: reply %+v", verb, resp)
		}
	}
	if got := general.Load(); got != 0 || verbs < 30 {
		t.Fatalf("%s = %d after %d canonical frames, want 0", obs.ServerFramesGeneral, got, verbs)
	}

	exchange := func(payload string) []byte {
		t.Helper()
		if err := wire.WriteFrame(p.nc, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(p.nc)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	canonical := exchange(`{"id":7,"command":{"verb":"ping","body":{}}}`)
	if got := general.Load(); got != 0 {
		t.Fatalf("%s = %d after a hand-written canonical ping, want 0", obs.ServerFramesGeneral, got)
	}
	spaced := exchange(`{"id":7, "command":{"verb":"ping","body":{}}}`)
	if got := general.Load(); got != 1 {
		t.Errorf("%s = %d after a ping with a space in it, want 1", obs.ServerFramesGeneral, got)
	}
	if !bytes.Equal(spaced, canonical) || !bytes.Contains(canonical, []byte(`"result":{"kind":"ping"`)) {
		t.Errorf("replies differ:\ncanonical %s\n   spaced %s", canonical, spaced)
	}
}

// TestUnencodableResultIsAnsweredAsAnError: a result no frame can carry (an
// infinity in it) is encoded straight into the write buffer like any other,
// fails there, and is answered as the error it always was — the encoder's
// text under the internal code, no result — on a connection that keeps
// serving.
func TestUnencodableResultIsAnsweredAsAnError(t *testing.T) {
	sys := openSystem(t, core.Options{})
	p := serve(t, New(sys, Config{}))()
	for _, cmd := range []command.Command{generate, command.EndLoad{Model: "g", Set: "l", FY: -100}, command.Solve{Model: "g", Set: "l"}} {
		if code, resp := p.do(cmd); code != "" {
			t.Fatalf("%v: %+v", cmd, resp.Error)
		}
	}
	// The replies are in, so nothing else touches the session's solution.
	ws := sys.Session("anon@conn-1").WS
	sol := ws.Solution("g")
	sol.U[5] = math.Inf(1)
	ws.PutSolution("g", sol)
	code, resp := p.do(command.Display{What: command.DisplayDisplacements, Model: "g"})
	if code != wire.CodeInternal || resp.Error.Message != "json: unsupported value: +Inf" || resp.Result != nil {
		t.Errorf("display of an infinite displacement: %+v with result %s; want code %q and the encoder's text alone", resp.Error, resp.Result, wire.CodeInternal)
	}
	if code, _ := p.do(command.Ping{}); code != "" {
		t.Errorf("ping after the refusal: %q", code)
	}
}
