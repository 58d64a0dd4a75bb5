package arch

// PEs returns every PE in ID order.
func (m *Machine) PEs() []*PE { return m.pes }

// Rerouted returns how many messages were bounced to another cluster
// because no local worker was live.
func (c *Cluster) Rerouted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rerouted
}

// Messages returns the message count sent from cluster src to dst.
func (nw *Network) Messages(src, dst int) int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.msgs[src][dst]
}

// Words returns the word count sent from cluster src to dst.
func (nw *Network) Words(src, dst int) int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.words[src][dst]
}
