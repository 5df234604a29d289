package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts pins the listener hardening: header and idle
// timeouts are set, and writes stay unbounded so the events feed can stream.
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != headerTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, headerTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v, want 0 (events stream)", hs.WriteTimeout, hs.ReadTimeout)
	}
}
