package resilience

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunFirstTierWins(t *testing.T) {
	v, tier, err := Run([]Step[float64]{
		{Tier: TierNN, Predict: func() (float64, error) { return 7, nil }},
		{Tier: TierBaseline, Predict: func() (float64, error) { t.Fatal("should not run"); return 0, nil }},
	})
	if err != nil || v != 7 || tier != TierNN {
		t.Fatalf("got v=%v tier=%q err=%v", v, tier, err)
	}
}

func TestRunFallsThroughOnNaNErrorAndPanic(t *testing.T) {
	finite := func(v float64) error {
		if !Finite(v) {
			return fmt.Errorf("non-finite %v", v)
		}
		return nil
	}
	v, tier, err := Run([]Step[float64]{
		{Tier: TierNN, Predict: func() (float64, error) { return math.NaN(), nil }, Check: finite},
		{Tier: "panicky", Predict: func() (float64, error) { panic("corrupt weights") }},
		{Tier: "erroring", Predict: func() (float64, error) { return 0, fmt.Errorf("no model") }},
		{Tier: TierHeuristic, Predict: func() (float64, error) { return 42, nil }, Check: finite},
	})
	if err != nil || v != 42 || tier != TierHeuristic {
		t.Fatalf("got v=%v tier=%q err=%v", v, tier, err)
	}
}

func TestRunAllTiersFail(t *testing.T) {
	_, tier, err := Run([]Step[int]{
		{Tier: TierNN, Predict: func() (int, error) { return 0, fmt.Errorf("down") }},
	})
	if err == nil || tier != TierError {
		t.Fatalf("got tier=%q err=%v", tier, err)
	}
	if _, _, err := Run[int](nil); err == nil {
		t.Fatal("empty chain must error")
	}
}

func TestFinite(t *testing.T) {
	if !Finite(0, -1.5, 1e300) {
		t.Fatal("finite values rejected")
	}
	if Finite(1, math.NaN()) || Finite(math.Inf(1)) || Finite(math.Inf(-1)) {
		t.Fatal("non-finite values accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := Median(nil); m != 0 {
		t.Fatalf("empty median %v", m)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
}

func decodeError(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return eb
}

func TestRecoverMiddleware(t *testing.T) {
	var logged string
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), func(format string, args ...any) { logged = fmt.Sprintf(format, args...) })
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if eb := decodeError(t, resp); eb.Status != 500 || eb.Error == "" {
		t.Fatalf("error body %+v", eb)
	}
	if !strings.Contains(logged, "boom") || !strings.Contains(logged, "TestRecoverMiddleware.func") {
		t.Fatalf("panic not logged with the panicking function's stack: %q", logged)
	}
}

func TestMaxBytesMiddleware(t *testing.T) {
	h := MaxBytes(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			WriteError(w, BodyErrorStatus(err), err.Error())
			return
		}
		w.WriteHeader(http.StatusOK)
	}), 16)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("small"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body status %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL, "text/plain", strings.NewReader(strings.Repeat("x", 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d", resp.StatusCode)
	}
}

func TestTimeoutMiddlewareExpires(t *testing.T) {
	release := make(chan struct{})
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
		fmt.Fprint(w, "late")
	}), 30*time.Millisecond, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if eb := decodeError(t, resp); eb.Status != http.StatusGatewayTimeout {
		t.Fatalf("error body %+v", eb)
	}
}

func TestTimeoutMiddlewarePassesFastRequests(t *testing.T) {
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Fast", "1")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "done")
	}), time.Second, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated || string(body) != "done" || resp.Header.Get("X-Fast") != "1" {
		t.Fatalf("status %d body %q hdr %q", resp.StatusCode, body, resp.Header.Get("X-Fast"))
	}
}

func TestTimeoutMiddlewareRecoversPanic(t *testing.T) {
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("mid-flight")
	}), time.Second, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestTimeoutMiddlewareDropsLateResponse: a handler that ignores its
// context and answers after the deadline yields the JSON 504, with none of
// its own status or body; one that returns late without writing gets the
// 504 too, not an implicit 200.
func TestTimeoutMiddlewareDropsLateResponse(t *testing.T) {
	for name, late := range map[string]func(http.ResponseWriter){
		"answers": func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, "late body")
		},
		"silent": func(http.ResponseWriter) {},
	} {
		h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(60 * time.Millisecond)
			late(w)
		}), 20*time.Millisecond, nil)
		srv := httptest.NewServer(h)
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		if resp.StatusCode != http.StatusGatewayTimeout || json.Unmarshal(body, &eb) != nil || eb.Status != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d body %q", name, resp.StatusCode, body)
		}
		if strings.Contains(string(body), "late body") {
			t.Fatalf("%s: late handler output leaked into the 504: %q", name, body)
		}
	}
}

// TestTimeoutMiddlewareLateSizedResponse: a late handler that set its own
// Content-Length before writing still yields a whole, parseable 504.
func TestTimeoutMiddlewareLateSizedResponse(t *testing.T) {
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		w.Header().Set("Content-Length", "500")
		w.Write(make([]byte, 500))
	}), 10*time.Millisecond, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("status %d, Content-Length %q: body read: %v", resp.StatusCode, resp.Header.Get("Content-Length"), err)
	}
	var eb ErrorBody
	if resp.StatusCode != http.StatusGatewayTimeout || json.Unmarshal(body, &eb) != nil || eb.Status != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

// TestTimeoutMiddlewareStartedResponseCompletes: the deadline judges only
// the first write, so a 200 begun in time streams to the end. The
// keep-alive connection it leaves serves the next request with a live
// context.
func TestTimeoutMiddlewareStartedResponseCompletes(t *testing.T) {
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ctx" {
			fmt.Fprint(w, r.Context().Err())
			return
		}
		fmt.Fprint(w, "first;")
		time.Sleep(150 * time.Millisecond)
		fmt.Fprint(w, "second")
	}), 50*time.Millisecond, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %q err %v", path, resp.StatusCode, body, err)
		}
		return string(body)
	}
	if body := get("/"); body != "first;second" {
		t.Fatalf("started response cut: %q", body)
	}
	if body := get("/ctx"); body != "<nil>" {
		t.Fatalf("next request on the connection has context error %q", body)
	}
}

// TestTimeoutMiddlewareKeepAliveAfterBody: a POST whose body the handler
// reads to the end, then answers late or streams past the deadline, leaves
// its keep-alive connection serving the next request with a live context.
// Hitting the body's end starts net/http's background read on the
// connection; the request's read deadline must not be armed under it.
func TestTimeoutMiddlewareKeepAliveAfterBody(t *testing.T) {
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ctx" {
			fmt.Fprint(w, r.Context().Err())
			return
		}
		if _, err := io.ReadAll(r.Body); err != nil {
			t.Errorf("body read: %v", err)
		}
		if r.URL.Path == "/stream" {
			fmt.Fprint(w, "first;")
		}
		time.Sleep(150 * time.Millisecond)
		fmt.Fprint(w, "second")
	}), 50*time.Millisecond, nil)
	srv := httptest.NewUnstartedServer(h)
	var conns sync.Map
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Store(c.RemoteAddr().String(), true)
		}
	}
	srv.Start()
	defer srv.Close()
	do := func(method, path string, body io.Reader) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, string(b)
	}
	for _, c := range []struct {
		path   string
		body   io.Reader
		status int
	}{
		{"/late", strings.NewReader(`{"n":1}`), http.StatusGatewayTimeout},
		{"/late", io.MultiReader(strings.NewReader(`{"n":1}`)), http.StatusGatewayTimeout}, // chunked
		{"/stream", strings.NewReader(`{"n":1}`), http.StatusOK},
		{"/stream", io.MultiReader(strings.NewReader(`{"n":1}`)), http.StatusOK},
	} {
		if status, body := do("POST", c.path, c.body); status != c.status {
			t.Fatalf("POST %s: status %d body %q, want %d", c.path, status, body, c.status)
		}
		if _, body := do("GET", "/ctx", nil); body != "<nil>" {
			t.Fatalf("after POST %s the next request on the connection has context error %q", c.path, body)
		}
	}
	n := 0
	conns.Range(func(any, any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("%d connections, want the one keep-alive connection", n)
	}
}

// TestTimeoutMiddlewareStalledUpload stalls a Content-Length body: the
// handler's read fails at the deadline and the client gets the 504 then,
// not when it would have finished sending.
func TestTimeoutMiddlewareStalledUpload(t *testing.T) {
	h := Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			WriteError(w, BodyErrorStatus(err), err.Error())
		}
	}), 50*time.Millisecond, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n{")
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(status, "504") {
		t.Fatalf("status line %q, err %v", status, err)
	}
}

// logSink collects logf lines written on server goroutines.
type logSink struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (s *logSink) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(&s.buf, format+"\n", args...)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestPanicAfterWriteAborts: a panic once the 200 is on the wire must not
// append a JSON 500 to it; the client gets a read error instead.
func TestPanicAfterWriteAborts(t *testing.T) {
	var logs logSink
	h := Recover(Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "partial")
		_ = http.NewResponseController(w).Flush()
		panic("mid-body")
	}), time.Second, logs.logf), logs.logf)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil || strings.Contains(string(body), "error") {
		t.Fatalf("status %d body %q read err %v: want an aborted body", resp.StatusCode, body, err)
	}
	if logged := logs.String(); !strings.Contains(logged, "mid-body") {
		t.Fatalf("panic not logged: %q", logged)
	}
}

// TestAbortHandlerPassesUnlogged: http.ErrAbortHandler is net/http's own
// abort signal; both recover sites re-panic it without a log line.
func TestAbortHandlerPassesUnlogged(t *testing.T) {
	var logs logSink
	h := Recover(Timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), time.Second, logs.logf), logs.logf)
	srv := httptest.NewServer(h)
	defer srv.Close()
	if resp, err := http.Get(srv.URL); err == nil {
		resp.Body.Close()
		t.Fatalf("aborted request answered %d", resp.StatusCode)
	}
	if logged := logs.String(); logged != "" {
		t.Fatalf("abort logged: %q", logged)
	}
}
