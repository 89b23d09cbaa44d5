package node

// Config returns the node's configuration (defaults resolved).
func (n *Node) Config() Config { return n.cfg }
