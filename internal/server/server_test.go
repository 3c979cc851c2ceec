package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"susc/internal/faultinject"
	"susc/internal/server"
)

const hotelFile = "../../testdata/hotel.susc"

func hotelSrc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(hotelFile)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// start boots a server on a free port and tears it down with the test.
func start(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return srv, "http://" + ln.Addr().String()
}

// response is one parsed NDJSON reply: record lines raw (for byte
// comparisons), control lines decoded, the done line split out.
type response struct {
	status  int
	records []string
	control []map[string]any
	done    map[string]any
}

func post(t *testing.T, url, body string) *response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseNDJSON(t, resp.StatusCode, raw)
}

func parseNDJSON(t *testing.T, status int, raw []byte) *response {
	t.Helper()
	out, err := parseResponse(status, raw)
	if err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if status == http.StatusOK && out.done == nil {
		t.Fatalf("response has no done line:\n%s", raw)
	}
	return out
}

func parseResponse(status int, raw []byte) (*response, error) {
	out := &response{status: status}
	if status != http.StatusOK {
		return out, nil
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, `{"susc"`) {
			out.records = append(out.records, line)
			continue
		}
		var c map[string]any
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			return nil, fmt.Errorf("bad control line %q: %v", line, err)
		}
		if c["susc"] == "done" {
			out.done = c
		} else {
			out.control = append(out.control, c)
		}
	}
	return out, nil
}

func exitOf(t *testing.T, r *response) int {
	t.Helper()
	e, ok := r.done["exit"].(float64)
	if !ok {
		t.Fatalf("done line has no exit: %v", r.done)
	}
	return int(e)
}

func getStats(t *testing.T, base string) server.Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeCheckAll: the basic round trip — a valid network comes back
// as one report record, exit 0, and /healthz answers ok.
func TestServeCheckAll(t *testing.T) {
	_, base := start(t, server.Config{})
	r := post(t, base+"/v1/checkall", hotelSrc(t))
	if exitOf(t, r) != 0 {
		t.Fatalf("exit %v, want 0 (done: %v)", r.done, r.done)
	}
	if len(r.records) != 1 || !strings.Contains(r.records[0], `"verdict":"valid"`) {
		t.Fatalf("records = %v", r.records)
	}
	// A bound on a location the file does not declare fails the run, as
	// on the CLI.
	r = post(t, base+"/v1/checkall?cap=nosuch%3D1", hotelSrc(t))
	if msg, _ := r.done["error"].(string); exitOf(t, r) != 1 || !strings.Contains(msg, "nosuch") {
		t.Fatalf("cap=nosuch=1: done %v, want exit 1 naming nosuch", r.done)
	}
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}
}

// TestServeRecordParity: identical requests stream byte-identical
// record lines — the served stream is as deterministic as a CLI rerun.
func TestServeRecordParity(t *testing.T) {
	_, base := start(t, server.Config{})
	src := hotelSrc(t)
	a := post(t, base+"/v1/plans?client=c2", src)
	b := post(t, base+"/v1/plans?client=c2", src)
	if exitOf(t, a) != 0 || exitOf(t, b) != 0 {
		t.Fatalf("exits: %v / %v", a.done, b.done)
	}
	if len(a.records) == 0 {
		t.Fatal("no plan records")
	}
	if strings.Join(a.records, "\n") != strings.Join(b.records, "\n") {
		t.Fatalf("reruns differ:\n%v\n%v", a.records, b.records)
	}
	la := post(t, base+"/v1/lint?file=hotel.susc", src)
	lb := post(t, base+"/v1/lint?file=hotel.susc", src)
	if strings.Join(la.records, "\n") != strings.Join(lb.records, "\n") {
		t.Fatalf("lint reruns differ:\n%v\n%v", la.records, lb.records)
	}
}

// TestServeWarmHitRate: a second identical checkall against a
// persistent session replays from the warm tiers.
func TestServeWarmHitRate(t *testing.T) {
	_, base := start(t, server.Config{CacheDir: t.TempDir()})
	src := hotelSrc(t)
	post(t, base+"/v1/checkall", src)
	cold := getStats(t, base)
	r := post(t, base+"/v1/checkall", src)
	if exitOf(t, r) != 0 {
		t.Fatalf("warm exit: %v", r.done)
	}
	warm := getStats(t, base)
	if warm.Store == nil || warm.Store.Hits <= cold.Store.Hits {
		t.Fatalf("no store hits on warm rerun: cold %+v warm %+v", cold.Store, warm.Store)
	}
}

// TestServeAdmissionControl: with one slot taken, the next request is
// shed with 429 and a Retry-After header instead of queueing.
func TestServeAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	restore := faultinject.Set(func(p faultinject.Point, unit string) {
		if p == faultinject.ServeHandler {
			<-release
		}
	})
	defer restore()
	defer close(release)
	_, base := start(t, server.Config{MaxInFlight: 1})
	src := hotelSrc(t)
	done := make(chan *response, 1)
	go func() { done <- post(t, base+"/v1/checkall", src) }()
	// Wait for the first request to hold the slot.
	for i := 0; ; i++ {
		if getStats(t, base).InFlight == 1 {
			break
		}
		if i > 200 {
			t.Fatal("first request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(base+"/v1/checkall", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	release <- struct{}{}
	if r := <-done; exitOf(t, r) != 0 {
		t.Fatalf("held request failed: %v", r.done)
	}
	if st := getStats(t, base); st.Shed < 1 {
		t.Fatalf("shed = %d, want >= 1", st.Shed)
	}
}

// TestServeBudgetClamp: the server-wide state cap clamps per-request
// budgets — even a request asking for more degrades to Unknown, exit 3.
func TestServeBudgetClamp(t *testing.T) {
	_, base := start(t, server.Config{MaxStates: 1})
	r := post(t, base+"/v1/checkall?max-states=1000000", hotelSrc(t))
	if exitOf(t, r) != 3 {
		t.Fatalf("exit %v, want 3 (budget exhausted)", r.done)
	}
	if len(r.records) != 1 || !strings.Contains(r.records[0], `"verdict":"unknown"`) {
		t.Fatalf("clamped run flushed no Unknown record: %v", r.records)
	}
}

// TestServePanicIsolation: a poisoned request yields a typed error line
// and exit 2; the server keeps serving and counts the panic.
func TestServePanicIsolation(t *testing.T) {
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.ServeHandler, "checkall#", "poisoned spec"))
	defer restore()
	_, base := start(t, server.Config{})
	src := hotelSrc(t)
	r := post(t, base+"/v1/checkall", src)
	if exitOf(t, r) != 2 {
		t.Fatalf("poisoned exit %v, want 2", r.done)
	}
	found := false
	for _, c := range r.control {
		if c["susc"] == "error" && strings.Contains(fmt.Sprint(c["unit"]), "serve/checkall#") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no typed error line: %v", r.control)
	}
	if r2 := post(t, base+"/v1/checkall", src); exitOf(t, r2) != 0 {
		t.Fatalf("server did not survive the panic: %v", r2.done)
	}
	if st := getStats(t, base); st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
}

// TestServeBadRequests: unknown modes, malformed or unknown query
// parameters and oversized bodies are refused up front with plain HTTP
// errors. The query parses as the mode's CLI flags do.
func TestServeBadRequests(t *testing.T) {
	_, base := start(t, server.Config{MaxBody: 64})
	cases := []struct {
		url, body string
		want      int
	}{
		{"/v1/nope", "x", http.StatusNotFound},
		{"/v1/explain", "x", http.StatusNotFound},
		{"/v1/lint?timeout=bogus", "x", http.StatusBadRequest},
		{"/v1/plans?client=c1&prune=banana", "x", http.StatusBadRequest},
		{"/v1/audit?plan=banana", "x", http.StatusBadRequest},
		{"/v1/lint?sevrity=error", "x", http.StatusBadRequest},
		{"/v1/plans?client=c1&severity=error", "x", http.StatusBadRequest},
		{"/v1/lint?webhook=http://example.com", "x", http.StatusBadRequest},
		{"/v1/lint", strings.Repeat("x", 100), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(base+c.url, "text/plain", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
}

// TestServeWebhook: a result callback arrives HMAC-signed, and delivery
// retries failures with backoff until the receiver accepts.
func TestServeWebhook(t *testing.T) {
	secret := []byte("test-secret")
	type hit struct {
		body []byte
		sig  string
	}
	hits := make(chan hit, 4)
	var attempts int
	receiver := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		body, _ := io.ReadAll(r.Body)
		hits <- hit{body: body, sig: r.Header.Get(server.SignatureHeader)}
	}))
	defer receiver.Close()
	_, base := start(t, server.Config{WebhookSecret: secret})
	r := post(t, base+"/v1/checkall?webhook="+receiver.URL, hotelSrc(t))
	if exitOf(t, r) != 0 {
		t.Fatalf("exit %v", r.done)
	}
	select {
	case h := <-hits:
		if !server.VerifySignature(secret, h.body, h.sig) {
			t.Fatalf("signature %q does not authenticate %s", h.sig, h.body)
		}
		if server.VerifySignature([]byte("wrong"), h.body, h.sig) {
			t.Fatal("signature verifies under the wrong key")
		}
		var payload map[string]any
		if err := json.Unmarshal(h.body, &payload); err != nil {
			t.Fatal(err)
		}
		if payload["mode"] != "checkall" || payload["exit"] != float64(0) {
			t.Fatalf("payload = %v", payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("webhook never delivered")
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two failures, one success)", attempts)
	}
}

// TestServeAcceptFault: a panic at the admission point is a handler
// crash net/http absorbs — the server answers the next request.
func TestServeAcceptFault(t *testing.T) {
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.ServeAccept, "lint", "accept fault"))
	defer restore()
	_, base := start(t, server.Config{})
	resp, err := http.Post(base+"/v1/lint", "text/plain", strings.NewReader("x"))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if r := post(t, base+"/v1/checkall", hotelSrc(t)); exitOf(t, r) != 0 {
		t.Fatalf("server did not survive accept fault: %v", r.done)
	}
}
