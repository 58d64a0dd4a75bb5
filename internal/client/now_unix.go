//go:build unix

package client

import (
	"io"
	"net"
	"os"
	"syscall"
)

// readerNow returns a reader of nc that never waits: each Read is one
// read(2) on the connection's non-blocking descriptor, and errWouldBlock
// when nothing has arrived.  It is nil for a conn that is not a
// syscall.Conn.
func readerNow(nc net.Conn) io.Reader {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &rawReader{rc: rc}
	r.read = func(fd uintptr) bool {
		r.n, r.err = syscall.Read(int(fd), r.p)
		return true // done, whatever was there: never wait for more
	}
	return r
}

// rawReader keeps its callback and its results, so a Read allocates
// nothing.  Only the read role's holder uses it.
type rawReader struct {
	rc   syscall.RawConn
	read func(fd uintptr) bool
	p    []byte
	n    int
	err  error
}

func (r *rawReader) Read(p []byte) (int, error) {
	r.p = p
	err := r.rc.Read(r.read)
	r.p = nil
	switch {
	case err != nil:
		return 0, err
	case r.err == syscall.EAGAIN || r.err == syscall.EWOULDBLOCK || r.err == syscall.EINTR:
		return 0, errWouldBlock
	case r.err != nil:
		return 0, os.NewSyscallError("read", r.err)
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}
