package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the connection timeouts: without a header
// deadline a client that never finishes its request headers holds a
// connection and its goroutine forever, and without an idle deadline
// neither does a silent keep-alive client. Write and whole-request read
// deadlines stay off, since event streams and backpressured task
// uploads legitimately last as long as a run.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v / WriteTimeout %v would cut long uploads and event streams", srv.ReadTimeout, srv.WriteTimeout)
	}
}
