//go:build !unix

package client

import (
	"io"
	"net"
)

// readerNow has no way to read a socket without waiting here, so links
// skip the drain before a send.
func readerNow(net.Conn) io.Reader { return nil }
