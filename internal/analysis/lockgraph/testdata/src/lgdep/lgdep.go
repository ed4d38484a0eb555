// Package lgdep is the cross-package half of the lockgraph fixture:
// blocking operations that package lg reaches through calls into this
// package while holding a lock.
package lgdep

import (
	"io"
	"net"
)

// ch is fed by peers; receiving parks until one sends.
var ch chan int

// Wait parks on a peer-fed channel with no bound.
func Wait() {
	<-ch
}

// Chain reaches Wait's park through one more hop.
func Chain() {
	Wait()
}

// Recv reads from a conn with no deadline armed.
func Recv(c net.Conn, buf []byte) {
	c.Read(buf)
}

// Drain reads from r; handed a conn, it is network I/O that this
// function's own summary cannot see.
func Drain(r io.Reader, buf []byte) {
	r.Read(buf)
}

// Peer only names the conn's far end: no I/O.
func Peer(c net.Conn) string {
	return c.RemoteAddr().String()
}
