//go:build linux

package server

import (
	"io"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// rawIO returns what a connection's buffers read from and write to.  For
// a socket they are a rawReader and a rawWriter: read(2) and write(2)
// issued with syscall.RawSyscall inside the descriptor's RawConn, so a
// request's socket calls stay out of the runtime's syscall path.  A call
// on that path wakes the runtime's monitor thread (sysmon) from its deep
// sleep, after which sysmon ticks every 20 µs for about a millisecond,
// longer than a small job.  A socket's descriptor is non-blocking, so
// neither call can hold its thread: on EAGAIN the callback returns false
// and the goroutine parks in the netpoller, where deadlines, Close and
// teardown find it as they find a net.Conn's own Read and Write.  A conn
// with no descriptor keeps its own methods.
func rawIO(nc net.Conn) (io.Reader, io.Writer) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nc, nc
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nc, nc
	}
	r := &rawReader{rc: rc}
	r.fn = r.read
	w := &rawWriter{rc: rc}
	w.fn = w.write
	return r, w
}

// rawReader reads a socket with read(2).  One goroutine reads at a time
// (the connection's reader), so p, n and err pass the call's arguments
// and results through fn, which is bound once: a Read allocates nothing.
type rawReader struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	p   []byte
	n   int
	err error
}

// Read reads as net.Conn's does: at most one read(2) that returns data,
// io.EOF once the peer has closed, the netpoller's error for a deadline
// or a closed conn.
func (r *rawReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.err = p, 0, nil
	err := r.rc.Read(r.fn)
	n := r.n
	if err == nil {
		err = r.err
	}
	r.p, r.err = nil, nil
	if err == nil && n == 0 {
		err = io.EOF
	}
	return n, err
}

func (r *rawReader) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
		switch e {
		case 0:
			r.n = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		r.err = os.NewSyscallError("read", e)
		return true
	}
}

// rawWriter writes a socket with write(2), as rawReader reads it; the
// connection's write lock makes it one writer at a time.
type rawWriter struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	p   []byte
	n   int
	err error
}

// Write writes all of p or fails: a partial write goes on from where it
// stopped once the netpoller says the socket has room again.
func (w *rawWriter) Write(p []byte) (int, error) {
	w.p, w.n, w.err = p, 0, nil
	err := w.rc.Write(w.fn)
	n := w.n
	if err == nil {
		err = w.err
	}
	w.p, w.err = nil, nil
	return n, err
}

func (w *rawWriter) write(fd uintptr) bool {
	for w.n < len(w.p) {
		rest := w.p[w.n:]
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&rest[0])), uintptr(len(rest)))
		switch e {
		case 0:
			if n == 0 {
				w.err = io.ErrUnexpectedEOF
				return true
			}
			w.n += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			w.err = os.NewSyscallError("write", e)
			return true
		}
	}
	return true
}

// monitorTick is the longest the runtime's monitor thread sleeps while a
// connection is open.
const monitorTick = 100 * time.Millisecond

// keepMonitorWaking keeps a timer pending until stop is called, so sysmon
// never sleeps past monitorTick.  sysmon alone preempts a goroutine that
// runs on and polls the network while no P is free, and whenever every P
// is idle it sleeps until the earliest timer pending then, or 60 s.  On
// net.Conn's path the read of the request that starts a long run wakes
// it; a raw read does not, so two SOR solves that allocate nothing (no
// collection's start wakes it either) would hold both Ps while a ping
// waits seconds for one of them to end.  A timer's wake, unlike a system
// call's, leaves sysmon at its long tick.  On a 2-vCPU host serving
// resolve_large, sysmon took 0.1 % of the daemon's CPU with no timer,
// 0.5 % with this one and 1.3 % with a 20 ms one; a ping beside two such
// solves waits about one monitorTick.
func keepMonitorWaking() (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(monitorTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}
