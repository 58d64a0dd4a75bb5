package hgraph

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// RemoveArc deletes the access path named sel, reporting whether it
// existed.
func (n *Node) RemoveArc(sel string) bool {
	if _, ok := n.arcs[sel]; !ok {
		return false
	}
	delete(n.arcs, sel)
	return true
}
