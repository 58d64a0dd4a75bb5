// Regression and chaos-unit tests for the resilient client: the
// events-channel close race, reconnect-with-replay for idempotent
// verbs, the never-replay rule for mutating verbs, and the exhausted
// retry budget.  All of it runs under -race.
package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	fem2 "repro"
	"repro/internal/fault"
)

// startServer boots a default system on a loopback listener.
func startServer(t *testing.T) (*fem2.Server, string) {
	t.Helper()
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	srv := fem2.NewServer(sys, fem2.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		sys.Close()
	})
	return srv, ln.Addr().String()
}

// eventuallyClosed fails unless ch closes within the deadline.
func eventuallyClosed(t *testing.T, ch <-chan *fem2.JobEvent) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("events channel never closed")
		}
	}
}

// TestEventsCloseOnClose pins the satellite-2 contract: Close closes
// the Events channel exactly once and later Do calls fail with
// ErrClientClosed — no send-on-closed-channel race, no goroutine leak.
func TestEventsCloseOnClose(t *testing.T) {
	_, addr := startServer(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{Notify: true})
		if err != nil {
			t.Fatal(err)
		}
		// Generate notification traffic racing the close: submits push
		// queued/running/done events through the read loop while Close
		// tears the channel down.
		ctx := context.Background()
		cl.Do(ctx, fem2.GenerateGrid{Name: "m", NX: 2, NY: 2, W: 2, H: 2, ClampLeft: true})
		cl.Do(ctx, fem2.EndLoad{Model: "m", Set: "l", FY: -1})
		cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "m", Set: "l"}})
		cl.Close()
		eventuallyClosed(t, cl.Events())
		if _, err := cl.Do(ctx, fem2.PingCommand{}); !errors.Is(err, fem2.ErrClientClosed) {
			t.Fatalf("Do after Close = %v, want ErrClientClosed", err)
		}
	}
	// The read loops must wind down with their connections.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestEventsCloseOnServerDisconnect pins the other half: with retries
// disabled, a server-side disconnect closes Events and fails Do, the
// historical semantics.
func TestEventsCloseOnServerDisconnect(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(context.Background(), fem2.PingCommand{}); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown(context.Background())
	eventuallyClosed(t, cl.Events())
	if _, err := cl.Do(context.Background(), fem2.PingCommand{}); !errors.Is(err, fem2.ErrClientClosed) {
		t.Fatalf("Do after disconnect = %v, want ErrClientClosed", err)
	}
}

// TestReconnectReplaysIdempotent pins the tentpole's client story: a
// connection killed mid-stream is replaced transparently and the
// idempotent verb that was in flight replays on the fresh connection.
func TestReconnectReplaysIdempotent(t *testing.T) {
	_, addr := startServer(t)
	// Connection 1 dies on its 3rd outbound frame (hello, ping, ping —
	// the second ping's frame is cut mid-write); later connections are
	// clean.
	dialer := fault.Dialer(func(n int) *fault.Injector {
		if n == 1 {
			return fault.NewInjector(7, fault.Rule{
				Op: fault.OpWrite, After: 2, Count: 1,
				Fault: fault.Fault{Err: fault.ErrIO, Partial: 3}})
		}
		return nil
	})
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{
		MaxRetries: 3, BaseBackoff: time.Millisecond, Seed: 7, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		res, err := cl.Do(context.Background(), fem2.PingCommand{})
		if err != nil {
			t.Fatalf("ping %d across the drop: %v", i, err)
		}
		if res.String() != "pong" {
			t.Fatalf("ping %d = %q", i, res)
		}
	}
	if cl.Reconnects() != 1 {
		t.Errorf("Reconnects() = %d, want 1", cl.Reconnects())
	}
	// Events stays open across the reconnect; only Close ends it.
	select {
	case _, ok := <-cl.Events():
		if !ok {
			t.Error("events closed by a survivable reconnect")
		}
	default:
	}
}

// TestNotifySurvivesReconnect: Options.Notify goes out in every
// handshake, so the connection that replaces a dead one is subscribed
// too, and a job submitted on it reports queued, running and done.
func TestNotifySurvivesReconnect(t *testing.T) {
	_, addr := startServer(t)
	// Connection 1 dies on its 2nd outbound frame: the first ping.
	dialer := fault.Dialer(func(n int) *fault.Injector {
		if n == 1 {
			return fault.NewInjector(1, fault.Rule{
				Op: fault.OpWrite, After: 1, Count: 1,
				Fault: fault.Fault{Err: fault.ErrIO}})
		}
		return nil
	})
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{
		MaxRetries: 3, BaseBackoff: time.Millisecond, Dialer: dialer, Notify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Do(ctx, fem2.PingCommand{}); err != nil {
		t.Fatalf("ping across the drop: %v", err)
	}
	if cl.Reconnects() != 1 {
		t.Fatalf("Reconnects() = %d, want 1", cl.Reconnects())
	}
	cl.Do(ctx, fem2.GenerateGrid{Name: "m", NX: 2, NY: 2, W: 2, H: 2, ClampLeft: true})
	cl.Do(ctx, fem2.EndLoad{Model: "m", Set: "l", FY: -1})
	res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "m", Set: "l"}})
	if err != nil {
		t.Fatal(err)
	}
	id := res.(*fem2.SubmitResult).ID
	var states []string
	deadline := time.After(5 * time.Second)
	for len(states) < 3 {
		select {
		case ev := <-cl.Events():
			if ev.Job == id {
				states = append(states, ev.State)
			}
		case <-deadline:
			t.Fatalf("after the reconnect job-%d reported %v, want queued, running, done", id, states)
		}
	}
	if fmt.Sprint(states) != "[queued running done]" {
		t.Errorf("after the reconnect job-%d reported %v, want [queued running done]", id, states)
	}
}

// TestMutatingVerbNeverReplays pins the safety rule: a mutating verb
// whose frame may have reached the server fails back to the caller
// instead of replaying, while the client itself stays usable.
func TestMutatingVerbNeverReplays(t *testing.T) {
	_, addr := startServer(t)
	// Connection 1 dies exactly on frame 2: the define command's frame.
	dialer := fault.Dialer(func(n int) *fault.Injector {
		if n == 1 {
			return fault.NewInjector(1, fault.Rule{
				Op: fault.OpWrite, After: 1, Count: 1,
				Fault: fault.Fault{Err: fault.ErrIO}})
		}
		return nil
	})
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{
		MaxRetries: 3, BaseBackoff: time.Millisecond, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(context.Background(), fem2.Define{Name: "m"}); err == nil {
		t.Fatal("mutating verb on a cut connection reported success")
	} else if errors.Is(err, fem2.ErrRetriesExhausted) {
		t.Fatalf("mutating verb was retried to exhaustion: %v", err)
	}
	// The next call reconnects and works.
	if _, err := cl.Do(context.Background(), fem2.PingCommand{}); err != nil {
		t.Fatalf("ping after failed mutate: %v", err)
	}
	if cl.Reconnects() != 1 {
		t.Errorf("Reconnects() = %d, want 1", cl.Reconnects())
	}
}

// TestRetriesExhausted pins the typed give-up: when the daemon stays
// unreachable past the budget, Do fails with a *RetryError that
// errors.Is-matches ErrRetriesExhausted and wraps the last cause.
func TestRetriesExhausted(t *testing.T) {
	_, addr := startServer(t)
	dialFailed := errors.New("no route to daemon")
	dials := 0
	dialer := func(a string) (net.Conn, error) {
		dials++
		if dials == 1 {
			return fault.Dialer(func(n int) *fault.Injector {
				return fault.NewInjector(1, fault.Rule{
					Op: fault.OpWrite, After: 1, Count: 1,
					Fault: fault.Fault{Err: fault.ErrIO}})
			})(a)
		}
		return nil, dialFailed
	}
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{
		MaxRetries: 2, BaseBackoff: time.Millisecond, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Do(context.Background(), fem2.PingCommand{})
	if !errors.Is(err, fem2.ErrRetriesExhausted) {
		t.Fatalf("Do against a dead daemon = %v, want ErrRetriesExhausted", err)
	}
	var re *fem2.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RetryError: %v", err)
	}
	if re.Attempts != 3 { // the initial try + 2 retries
		t.Errorf("RetryError.Attempts = %d, want 3", re.Attempts)
	}
	if !errors.Is(re.Last, dialFailed) {
		t.Errorf("RetryError.Last = %v, want the dial failure", re.Last)
	}
	if fmt.Sprint(err) == "" {
		t.Error("empty RetryError rendering")
	}
}

// TestUnsendableCommandLeavesTheLinkAlone: a command no frame can carry — a
// NaN field, a nil command — fails Do with the codec's own error, as it did
// when commands were marshalled before the link was touched, and costs the
// connection nothing: not dropped, not retried, the next call answers.
func TestUnsendableCommandLeavesTheLinkAlone(t *testing.T) {
	_, addr := startServer(t)
	cl, err := fem2.DialWithOptions(addr, "eng", fem2.ClientOptions{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Do(ctx, fem2.SetMaterial{E: math.NaN(), Nu: 0.3, T: 10, A: 2000}); err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Errorf("Do(material NaN …) = %v, want json: unsupported value: NaN", err)
	}
	if _, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.AddNode{Model: "g", X: math.Inf(1)}}); err == nil || err.Error() != "json: unsupported value: +Inf" {
		t.Errorf("Do(submit node g +Inf 0) = %v, want json: unsupported value: +Inf", err)
	}
	if _, err := cl.Do(ctx, nil); !errors.Is(err, fem2.ErrUsage) || err.Error() != "usage: wire: nil command" {
		t.Errorf("Do(nil) = %v, want the nil-command usage error", err)
	}
	if res, err := cl.Do(ctx, fem2.PingCommand{}); err != nil || res.String() != "pong" {
		t.Errorf("ping after the refusals = %v, %v", res, err)
	}
	if n := cl.Reconnects(); n != 0 {
		t.Errorf("client reconnected %d times; an unsendable command is not a link failure", n)
	}
}
