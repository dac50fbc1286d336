package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnection: a call whose response body the client
// does not decode still reads it to the end, so consecutive calls share
// one keep-alive connection instead of dialing per heartbeat.
func TestClientReusesConnection(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ttl_ms":30000}`))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := NewClient(ts.URL, "w1", nil)
	for i := 0; i < 10; i++ {
		if err := c.Heartbeat(context.Background(), "c1", "tok", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UploadTrace(context.Background(), "fp", []byte("trace")); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("11 calls opened %d connections, want 1", n)
	}
}
