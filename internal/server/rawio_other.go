//go:build !linux

package server

import (
	"io"
	"net"
)

// rawIO returns the conn itself: off Linux a connection's reads and
// writes take net.Conn's own path (rawio_linux.go has the raw one).
func rawIO(nc net.Conn) (io.Reader, io.Writer) { return nc, nc }

// keepMonitorWaking has nothing to do off Linux, where every socket call
// takes the runtime's syscall path and wakes its monitor thread.
func keepMonitorWaking() (stop func()) { return func() {} }
