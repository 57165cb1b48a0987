package resilience

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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
	if !strings.Contains(logged, "boom") {
		t.Fatalf("panic not logged: %q", logged)
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
