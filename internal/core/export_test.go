package core

// HasColdState reports whether n has allocated its recovery and INIT
// state, for the external tests that drive nodes through the engine.
func HasColdState(n *Node) bool { return n.cold != nil }
