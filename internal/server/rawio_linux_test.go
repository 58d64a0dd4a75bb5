package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// loopbackPair returns the two ends of a loopback TCP connection, both
// closed when the test ends.
func loopbackPair(t *testing.T) (a, b *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, _ := ln.Accept()
		accepted <- nc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		nc.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { nc.Close(); peer.Close() })
	return peer.(*net.TCPConn), nc.(*net.TCPConn)
}

// rawPair is rawIO of nc, checked to be the raw reader and writer.
func rawPair(t *testing.T, nc net.Conn) (*rawReader, *rawWriter) {
	t.Helper()
	r, w := rawIO(nc)
	rr, ok1 := r.(*rawReader)
	rw, ok2 := w.(*rawWriter)
	if !ok1 || !ok2 {
		t.Fatalf("rawIO(%T) = %T, %T; want the raw reader and writer", nc, r, w)
	}
	return rr, rw
}

// TestRawIOKeepsAConnWithoutADescriptor: a conn that is no socket reads
// and writes through its own methods.
func TestRawIOKeepsAConnWithoutADescriptor(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if r, w := rawIO(a); r != a || w != a {
		t.Errorf("rawIO(net.Pipe) = %T, %T; want the conn itself", r, w)
	}
}

// TestRawIOAllocatesNothing holds a raw Read and a raw Write on a
// loopback pair to no allocation: each binds its callback once, in rawIO.
func TestRawIOAllocatesNothing(t *testing.T) {
	a, b := loopbackPair(t)
	ra, wa := rawPair(t, a)
	msg := bytes.Repeat([]byte("frame"), 20)
	buf := make([]byte, len(msg))
	var err error
	if n := testing.AllocsPerRun(200, func() {
		if _, e := wa.Write(msg); e != nil {
			err = e
		}
		if _, e := io.ReadFull(b, buf); e != nil {
			err = e
		}
	}); err != nil || n != 0 {
		t.Errorf("a raw Write (and the net.Conn read of it) allocates %v a call (err %v); want 0", n, err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, e := b.Write(msg); e != nil {
			err = e
		}
		if _, e := io.ReadFull(ra, buf); e != nil {
			err = e
		}
	}); err != nil || n != 0 {
		t.Errorf("a raw Read (and the net.Conn write it reads) allocates %v a call (err %v); want 0", n, err)
	}
}

// ioSides are the two implementations under the semantics test: the
// oracle, net.Conn's own Read and Write, and rawIO's.
var ioSides = []struct {
	name string
	io   func(t *testing.T, nc net.Conn) (io.Reader, io.Writer)
}{
	{"net.Conn", func(t *testing.T, nc net.Conn) (io.Reader, io.Writer) { return nc, nc }},
	{"raw", func(t *testing.T, nc net.Conn) (io.Reader, io.Writer) { r, w := rawPair(t, nc); return r, w }},
}

// TestRawIOMatchesNetConn runs each case against net.Conn's own Read and
// Write and against rawIO's, on a loopback TCP pair: a and the raw side
// are the server's end, b the peer's.
func TestRawIOMatchesNetConn(t *testing.T) {
	for _, side := range ioSides {
		t.Run(side.name, func(t *testing.T) {
			t.Run("eof", func(t *testing.T) {
				a, b := loopbackPair(t)
				r, _ := side.io(t, a)
				if _, err := b.Write([]byte("bye")); err != nil {
					t.Fatal(err)
				}
				b.Close()
				var got []byte
				buf := make([]byte, 2)
				var err error
				for err == nil {
					var n int
					n, err = r.Read(buf)
					got = append(got, buf[:n]...)
				}
				if err != io.EOF || string(got) != "bye" {
					t.Errorf("read %q, then %v; want \"bye\", then io.EOF", got, err)
				}
			})
			t.Run("deadline", func(t *testing.T) {
				a, b := loopbackPair(t)
				r, _ := side.io(t, a)
				// A past deadline set before the read, as on a dead conn.
				a.SetReadDeadline(time.Now())
				if n, err := r.Read(make([]byte, 8)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("read past its deadline = %d, %v; want 0, os.ErrDeadlineExceeded", n, err)
				}
				// Set while the read is parked, as teardown's AfterFunc does.
				a.SetReadDeadline(time.Time{})
				time.AfterFunc(20*time.Millisecond, func() { a.SetReadDeadline(time.Now()) })
				if n, err := r.Read(make([]byte, 8)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("parked read cut by a deadline = %d, %v; want 0, os.ErrDeadlineExceeded", n, err)
				}
				// The conn reads on once the deadline is cleared.
				a.SetReadDeadline(time.Time{})
				b.Write([]byte("on"))
				buf := make([]byte, 2)
				if _, err := io.ReadFull(r, buf); err != nil || string(buf) != "on" {
					t.Errorf("read after the deadline cleared = %q, %v; want \"on\"", buf, err)
				}
			})
			t.Run("closed", func(t *testing.T) {
				a, _ := loopbackPair(t)
				r, w := side.io(t, a)
				a.Close()
				if _, err := r.Read(make([]byte, 8)); !errors.Is(err, net.ErrClosed) {
					t.Errorf("read of a closed conn: %v; want net.ErrClosed", err)
				}
				if _, err := w.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
					t.Errorf("write to a closed conn: %v; want net.ErrClosed", err)
				}
			})
			t.Run("slow-reader", func(t *testing.T) {
				// A small send buffer and a reader that starts late and
				// pauses: the write goes out in parts, with EAGAIN between.
				a, b := loopbackPair(t)
				a.SetWriteBuffer(64 << 10)
				_, w := side.io(t, a)
				payload := make([]byte, 4<<20)
				rand.New(rand.NewSource(1)).Read(payload)
				got := make(chan []byte, 1)
				go func() {
					var all []byte
					buf := make([]byte, 64<<10)
					for i := 0; ; i++ {
						if i%16 == 0 {
							time.Sleep(10 * time.Millisecond)
						}
						n, err := b.Read(buf)
						all = append(all, buf[:n]...)
						if err != nil {
							got <- all
							return
						}
					}
				}()
				n, err := w.Write(payload)
				if n != len(payload) || err != nil {
					t.Errorf("4 MiB write = %d, %v; want %d, nil", n, err, len(payload))
				}
				a.CloseWrite()
				if all := <-got; !bytes.Equal(all, payload) {
					t.Errorf("the slow reader got %d bytes, not the %d written", len(all), len(payload))
				}
			})
			t.Run("peer-reset", func(t *testing.T) {
				a, b := loopbackPair(t)
				_, w := side.io(t, a)
				b.SetLinger(0)
				b.Close() // a RST
				awaitReset(t, a)
				if _, err := w.Write([]byte("late")); !errors.Is(err, syscall.EPIPE) && !errors.Is(err, syscall.ECONNRESET) {
					t.Errorf("write after the peer reset: %v; want EPIPE or ECONNRESET", err)
				}
			})
			t.Run("reader-beside-writer", func(t *testing.T) {
				// One goroutine writes through w while another reads the
				// echo through r: the two share the conn and nothing else.
				a, b := loopbackPair(t)
				r, w := side.io(t, a)
				go io.Copy(b, b)
				payload := make([]byte, 1<<20)
				rand.New(rand.NewSource(2)).Read(payload)
				var wg sync.WaitGroup
				wg.Add(1)
				var werr error
				go func() {
					defer wg.Done()
					for off := 0; off < len(payload) && werr == nil; off += 4 << 10 {
						_, werr = w.Write(payload[off : off+4<<10])
					}
				}()
				echo := make([]byte, len(payload))
				_, rerr := io.ReadFull(r, echo)
				wg.Wait()
				if werr != nil || rerr != nil || !bytes.Equal(echo, payload) {
					t.Errorf("echo through the reader beside the writer: write %v, read %v, intact %v", werr, rerr, bytes.Equal(echo, payload))
				}
			})
		})
	}
}

// awaitReset reads nc until the peer's RST has arrived.
func awaitReset(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer nc.SetReadDeadline(time.Time{})
	if _, err := nc.Read(make([]byte, 1)); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read after the peer's RST: %v; want ECONNRESET", err)
	}
}

// TestWriteAfterPeerResetCancelsTheConn: a reply written to a peer that
// reset fails, and the failed write ends the connection.
func TestWriteAfterPeerResetCancelsTheConn(t *testing.T) {
	a, b := loopbackPair(t)
	c := newConn(&Server{}, a, 1)
	b.SetLinger(0)
	b.Close()
	awaitReset(t, a)
	if c.write(&wire.Response{ID: 1, Error: &wire.Error{Code: wire.CodeProto, Message: "late"}}) {
		t.Error("a write to a peer that reset reports success")
	}
	if err := c.ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("after the failed write the conn's context is %v; want cancelled", err)
	}
}
