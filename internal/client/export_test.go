package client

import "errors"

// Looping reports whether the live connection runs a read loop.
func Looping(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ln != nil && c.ln.looping
}

// Waiting reports how many callers on the live connection wait on a
// channel for their reply or for the read role.
func Waiting(c *Client) int {
	c.mu.Lock()
	ln := c.ln
	c.mu.Unlock()
	if ln == nil {
		return 0
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	n := 0
	for _, w := range ln.pending {
		if w.ch != nil {
			n++
		}
	}
	return n
}

// StartDrain takes the live connection's read role as a round trip does
// for its drain before the send, so callers arriving meanwhile wait for
// it.  finish runs that drain and what the round trip does with its
// failure, and returns the failure.
func StartDrain(c *Client) (finish func() error) {
	c.mu.Lock()
	ln := c.ln
	c.mu.Unlock()
	ln.mu.Lock()
	if ln.reading {
		panic("client: StartDrain with the read role held")
	}
	ln.reading = true
	ln.mu.Unlock()
	return func() error {
		err := ln.drain()
		if bad := (unsent{}); errors.As(err, &bad) {
			c.drop(ln, bad.error)
		}
		return err
	}
}
