// The read role's guards: a round trip reads its own reply with no read
// loop running, pipelined callers each get their own reply while one of
// them reads for the rest, a cancelled reader leaves a half-read frame
// for the next, and a hang-up while the client is idle is found before
// the next send.  All of it runs under -race.
package client_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fem2 "repro"
	"repro/internal/client"
	"repro/internal/command"
	"repro/internal/fault"
	"repro/internal/wire"
)

// TestCallerReadsItsOwnReply: a plain client completes its round trips
// without a read loop; the first Events call starts one.
func TestCallerReadsItsOwnReply(t *testing.T) {
	_, addr := startServer(t)
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if res, err := cl.Do(ctx, fem2.PingCommand{}); err != nil || res.String() != "pong" {
			t.Fatalf("ping %d = %v, %v", i, res, err)
		}
	}
	if client.Looping(cl) {
		t.Fatal("a read loop started for 100 round trips, want none")
	}
	cl.Events()
	cl.Events()
	if !client.Looping(cl) {
		t.Fatal("Events started no read loop")
	}
	if res, err := cl.Do(ctx, fem2.PingCommand{}); err != nil || res.String() != "pong" {
		t.Fatalf("ping beside the read loop = %v, %v", res, err)
	}
}

// TestPipelinedCallersGetTheirOwnReplies: eight goroutines pipeline mixed
// verbs on one client beside a wait on a running solve, which a ping and
// a status overtake; every reply answers its own request.
func TestPipelinedCallersGetTheirOwnReplies(t *testing.T) {
	sys, err := fem2.New(fem2.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := fem2.NewServer(sys, fem2.ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer func() {
		srv.Shutdown(context.Background())
		sys.Close()
	}()
	cl, err := fem2.Dial(lis.Addr().String(), "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	do := func(cmd fem2.Command) fem2.Result {
		t.Helper()
		res, err := cl.Do(ctx, cmd)
		if err != nil {
			t.Fatalf("%s: %v", command.Verb(cmd), err)
		}
		return res
	}

	// A slow iterative solve, waited on while others overtake it.
	do(fem2.GenerateGrid{Name: "big", NX: 40, NY: 40, W: 40, H: 40, ClampLeft: true})
	do(fem2.EndLoad{Model: "big", Set: "l", FY: -1000})
	slow := do(fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "big", Set: "l", Method: fem2.SolveSOR}}).(*fem2.SubmitResult).ID
	for do(fem2.StatusCommand{ID: slow}).(*fem2.JobStatusResult).State != fem2.JobRunningName {
		time.Sleep(time.Millisecond)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := cl.Do(ctx, fem2.WaitCommand{ID: slow})
		waited <- err
	}()
	time.Sleep(20 * time.Millisecond) // the wait is on the wire
	if res := do(fem2.PingCommand{}); res.String() != "pong" {
		t.Errorf("ping overtaking the wait = %q", res)
	}
	if st := do(fem2.StatusCommand{ID: slow}).(*fem2.JobStatusResult); st.ID != slow || st.State != fem2.JobRunningName {
		t.Errorf("status overtaking the wait = job-%d %s, want job-%d running", st.ID, st.State, slow)
	}
	select {
	case err := <-waited:
		t.Fatalf("wait on the running solve returned early: %v", err)
	default:
	}

	const callers, calls = 8, 100
	for g := 0; g < callers; g++ {
		do(fem2.GenerateGrid{Name: fmt.Sprintf("g%d", g), NX: 2, NY: 1, W: 2, H: 1, ClampLeft: true})
		do(fem2.EndLoad{Model: fmt.Sprintf("g%d", g), Set: "l", FY: -1})
	}
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- pipeline(ctx, cl, fmt.Sprintf("g%d", g), g, calls)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}

	do(fem2.CancelCommand{ID: slow})
	if err := <-waited; !errors.Is(err, fem2.ErrCancelled) {
		t.Errorf("wait on the cancelled solve = %v, want ErrCancelled", err)
	}
}

// pipeline runs calls mixed round trips on model and checks that each
// reply answers its own request.
func pipeline(ctx context.Context, cl *fem2.Client, model string, seed, calls int) error {
	var last int64
	for i := 0; i < calls; i++ {
		switch (seed + i) % 4 {
		case 0:
			res, err := cl.Do(ctx, fem2.PingCommand{})
			if err != nil || res.String() != "pong" {
				return fmt.Errorf("%s call %d: ping = %v, %v", model, i, res, err)
			}
		case 1:
			res, err := cl.Do(ctx, fem2.VersionCommand{})
			if v, ok := res.(*command.VersionResult); err != nil || !ok || v.Protocol != fem2.ProtocolVersion {
				return fmt.Errorf("%s call %d: version = %v, %v", model, i, res, err)
			}
		case 2:
			res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: model, Set: "l"}})
			sub, ok := res.(*fem2.SubmitResult)
			if err != nil || !ok {
				return fmt.Errorf("%s call %d: submit = %v, %v", model, i, res, err)
			}
			last = sub.ID
			res, err = cl.Do(ctx, fem2.WaitCommand{ID: last})
			if sol, ok := res.(*fem2.SolveResult); err != nil || !ok || sol.Model != model {
				return fmt.Errorf("%s call %d: wait job-%d = %v, %v", model, i, last, res, err)
			}
		case 3:
			if last == 0 {
				continue
			}
			res, err := cl.Do(ctx, fem2.StatusCommand{ID: last})
			if st, ok := res.(*fem2.JobStatusResult); err != nil || !ok || st.ID != last {
				return fmt.Errorf("%s call %d: status job-%d = %v, %v", model, i, last, res, err)
			}
		}
	}
	return nil
}

// stub serves a scripted peer on a loopback listener: it answers each
// connection's handshake and then hands the connection to script, with
// the connection's 1-based number.
func stub(t *testing.T, script func(n int, nc net.Conn, br *bufio.Reader)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		lis.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				hello, err := wire.DecodeRequest(br)
				if err != nil {
					return
				}
				wire.EncodeResponse(nc, &wire.Response{ID: hello.ID, Welcome: &wire.Welcome{
					Server: "stub", Proto: command.ProtocolVersion, Session: fmt.Sprintf("stub-%d", n)}})
				script(n, nc, br)
			}()
		}
	}()
	return lis.Addr().String()
}

// frame is one response's whole frame.
func frame(resp *wire.Response) []byte {
	b, err := wire.AppendResponse(nil, resp)
	if err != nil {
		panic(err)
	}
	return b
}

// TestCancelMidFrame: a reader cancelled halfway through a reply frame
// keeps the half it read; the next round trip reads on from there, skips
// the reply nobody waits for any more, and gets its own — on the same
// connection.
func TestCancelMidFrame(t *testing.T) {
	halfSent, resume := make(chan struct{}), make(chan struct{})
	addr := stub(t, func(n int, nc net.Conn, br *bufio.Reader) {
		if n > 1 {
			return // a reconnect: the test fails on it
		}
		first, err := wire.DecodeRequest(br)
		if err != nil {
			return
		}
		stale := frame(&wire.Response{ID: first.ID, Error: &wire.Error{Code: wire.CodeUsage, Message: "stale reply"}})
		nc.Write(stale[:len(stale)/2])
		close(halfSent)
		<-resume
		second, err := wire.DecodeRequest(br)
		if err != nil {
			return
		}
		nc.Write(append(stale[len(stale)/2:], frame(&wire.Response{ID: second.ID, Res: &command.PingResult{}})...))
	})
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{MaxRetries: 1, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-halfSent
		time.Sleep(20 * time.Millisecond) // the half frame is in
		cancel()
	}()
	start := time.Now()
	if _, err := cl.Do(ctx, fem2.PingCommand{}); !errors.Is(err, fem2.ErrCancelled) {
		t.Fatalf("cancelled ping = %v, want ErrCancelled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancel took %v", d)
	}
	close(resume)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if res, err := cl.Do(ctx2, fem2.PingCommand{}); err != nil || res.String() != "pong" {
		t.Fatalf("ping after the cancel = %v, %v; want its own pong", res, err)
	}
	if n := cl.Reconnects(); n != 0 {
		t.Errorf("Reconnects() = %d, want 0: the connection survives a cancelled reader", n)
	}
}

// TestIdleHangUpFoundBeforeSend: a server that closes an idle connection
// costs a mutating verb nothing, so define runs on a fresh connection.  A
// TCP connection is drained before the send; one the client cannot read
// without waiting (a fault.Conn, even with no weather) runs a read loop
// that finds the hang-up first.
func TestIdleHangUpFoundBeforeSend(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dialer func(string) (net.Conn, error)
	}{
		{"tcp", nil},
		{"fault.Conn", fault.Dialer(func(int) *fault.Injector { return fault.NewInjector(1) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hungUp := make(chan struct{})
			addr := stub(t, func(n int, nc net.Conn, br *bufio.Reader) {
				if n == 1 {
					req, err := wire.DecodeRequest(br)
					if err != nil {
						return
					}
					nc.Write(frame(&wire.Response{ID: req.ID, Res: &command.PingResult{}}))
					nc.Close()
					close(hungUp)
					return
				}
				for {
					req, err := wire.DecodeRequest(br)
					if err != nil {
						return
					}
					d, ok := req.Cmd.(command.Define)
					if !ok {
						wire.EncodeResponse(nc, &wire.Response{ID: req.ID, Error: &wire.Error{Code: wire.CodeUsage, Message: "unexpected"}})
						continue
					}
					wire.EncodeResponse(nc, &wire.Response{ID: req.ID, Res: &command.DefineResult{Name: d.Name}})
				}
			})
			cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{
				MaxRetries: 3, BaseBackoff: time.Millisecond, Dialer: tc.dialer})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := cl.Do(ctx, fem2.PingCommand{}); err != nil {
				t.Fatal(err)
			}
			<-hungUp
			time.Sleep(20 * time.Millisecond) // the FIN is in
			res, err := cl.Do(ctx, fem2.Define{Name: "m"})
			if err != nil {
				t.Fatalf("define after an idle hang-up = %v", err)
			}
			if res.String() != (&command.DefineResult{Name: "m"}).String() {
				t.Errorf("define = %q", res)
			}
			if n := cl.Reconnects(); n != 1 {
				t.Errorf("Reconnects() = %d, want 1", n)
			}
		})
	}
}

// TestDrainFailureNeverReplaysASentMutation: a caller whose define went
// out waits while another caller, draining before its own send, finds the
// server gone.  The define may have run, so it fails back to its caller
// and no fresh connection ever sees it; only the drainer's request, which
// never left, counts as unsent.
func TestDrainFailureNeverReplaysASentMutation(t *testing.T) {
	defineRead := make(chan struct{})
	var replayed atomic.Int32
	addr := stub(t, func(n int, nc net.Conn, br *bufio.Reader) {
		if n == 1 {
			if _, err := wire.DecodeRequest(br); err == nil {
				nc.Close() // read the define, then die without a reply
				close(defineRead)
			}
			return
		}
		for {
			req, err := wire.DecodeRequest(br)
			if err != nil {
				return
			}
			if _, ok := req.Cmd.(command.Define); ok {
				replayed.Add(1)
			}
			wire.EncodeResponse(nc, &wire.Response{ID: req.ID, Res: &command.DefineResult{Name: "m"}})
		}
	})
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{MaxRetries: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	finish := client.StartDrain(cl) // another caller, in its drain
	defined := make(chan error, 1)
	go func() {
		_, err := cl.Do(ctx, fem2.Define{Name: "m"})
		defined <- err
	}()
	<-defineRead
	for client.Waiting(cl) == 0 { // the define waits on the drainer
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the FIN is in
	if err := finish(); !errors.Is(err, fem2.ErrClientClosed) {
		t.Fatalf("drain after the hang-up = %v, want ErrClientClosed", err)
	}
	if err := <-defined; !errors.Is(err, fem2.ErrClientClosed) {
		t.Errorf("define sent before the hang-up = %v, want ErrClientClosed", err)
	}
	if n := replayed.Load(); n != 0 {
		t.Errorf("a fresh connection saw %d defines, want 0: a sent mutation was replayed", n)
	}
}
