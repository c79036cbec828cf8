package api

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
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
	srv, err := New(Config{History: sampleStore(t, 1)})
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

// TestPeerStuckInItsRequestLineIsHungUpOn connects to a serving daemon,
// sends half a request line and nothing more. The daemon answers whole
// requests on other connections meanwhile, closes the stuck one once
// readHeaderTimeout has passed, and shuts down on SIGTERM as if the peer
// had never been there.
func TestPeerStuckInItsRequestLineIsHungUpOn(t *testing.T) {
	srv, err := New(Config{History: sampleStore(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeUntilSignal(ln, func() {}) }()

	stuck, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	start := time.Now()
	if _, err := io.WriteString(stuck, "GET /api/v1/hea"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/api/v1/health")
	if err != nil {
		t.Fatalf("a whole request beside the stuck one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a whole request beside the stuck one: %d", resp.StatusCode)
	}

	stuck.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	// ReadAll returning without error is the hang-up; net/http may say
	// 400 on the way out, never anything else.
	reply, err := io.ReadAll(stuck)
	if err != nil || (len(reply) != 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 400 ")) {
		t.Fatalf("the stuck peer read %q, %v; want a hang-up", reply, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("hung up on after %v, before the %v deadline", waited, readHeaderTimeout)
	}

	// A request was answered, so the server's signal handler is installed.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeUntilSignal: %v", err)
	}
}

// TestProfileOutlivesTheRequestDeadline pins the one mount without the
// request deadline: a CPU profile asked for longer than Config.Timeout
// comes back whole. Behind the edge timeout that wrapped every mount, it
// answered 503 timeout at the deadline (after 30 s for the default
// profile).
func TestProfileOutlivesTheRequestDeadline(t *testing.T) {
	s, err := New(Config{History: sampleStore(t, 1), Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.MountTelemetry(http.NotFoundHandler(), http.NotFoundHandler(), http.NotFoundHandler(), true)
	ts := httptest.NewServer(s)
	defer ts.Close()
	start := time.Now()
	resp, body := get(t, ts.URL+"/debug/pprof/profile?seconds=1", nil)
	if took := time.Since(start); resp.StatusCode != http.StatusOK || took < time.Second {
		t.Fatalf("profile: status %d after %v, want 200 after the second asked for", resp.StatusCode, took)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile: %q, %d bytes, want a gzipped profile", ct, len(body))
	}
}
