package api

import (
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestResponseInFlightAtSIGTERMCompletes drives the daemons' shutdown
// sequence with a real SIGTERM: a request whose handler is still running
// when the signal lands is answered in full, health reads 503 draining
// while the daemon's own drain work runs, and the listener stops
// accepting once that work is done — the order collectord's durable path
// did not keep while it served with a bare http.Serve and exited under
// its in-flight responses.
func TestResponseInFlightAtSIGTERMCompletes(t *testing.T) {
	srv, err := New(Config{Live: &fakeLive{snap: sampleSnapshot(t, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	srv.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "the whole answer")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	draining, drained := make(chan struct{}), make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- srv.ServeUntilSignal(ln, func() {
			close(draining)
			<-drained
		})
	}()

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{string(body), err}
	}()

	// The request is being served, so the server's signal handler is
	// installed: the SIGTERM goes to it, not to the test binary's default.
	<-entered
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-draining
	resp, err := http.Get(base + "/api/v1/health")
	if err != nil {
		t.Fatalf("health during the drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health during the drain: %d, want 503", resp.StatusCode)
	}

	// The daemon's work is done; the listener closes while /slow is still
	// in its handler. Only then let the handler finish.
	close(drained)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts after the drain")
		}
	}
	close(release)
	if r := <-got; r.err != nil || r.body != "the whole answer" {
		t.Fatalf("the in-flight response: %q, %v", r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeUntilSignal: %v", err)
	}
}
