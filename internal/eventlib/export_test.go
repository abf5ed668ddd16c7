package eventlib

// Running reports whether the dispatch loop is active.
func (b *Base) Running() bool { return b.running }
