package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzServeRequest drives the /v1/<mode> handler of one server with
// arbitrary modes, query strings and bodies. Small budget ceilings keep
// every input fast. Whatever the input, the answer is a plain 400, 404
// or 413, or a 200 whose stream ends with a done line; no input may make
// a verification panic (an error control line, exit 2).
func FuzzServeRequest(f *testing.F) {
	srv, err := New(Config{
		MaxStates:  5000,
		MaxEdges:   20000,
		MaxTimeout: 200 * time.Millisecond,
		MaxBody:    1 << 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(time.Second) })
	var specs []string
	for _, pattern := range []string{"../../testdata/*.susc", "../../examples/specs/*.susc"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			specs = append(specs, string(src))
		}
	}
	queries := [][2]string{
		{"lint", "file=testdata/hotel.susc"},
		{"audit", "file=examples/specs/booking.susc"},
		{"audit", "plan=1&severity=warning"},
		{"check", "client=c1"},
		{"plans", "client=c1"},
		{"plans", "client=c2&prune=0&max-states=50"},
		{"checkall", "cap=br%3D1"},
		{"checkall", "timeout=1ms"},
		{"plans", "client=c1&prune=banana"},
		{"lint", "sevrity=error"},
		{"explain", ""},
	}
	for _, src := range specs {
		for _, q := range queries {
			f.Add(q[0], q[1], src)
		}
	}
	f.Fuzz(func(t *testing.T, mode, rawQuery, body string) {
		req := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/" + mode, RawQuery: rawQuery},
			Header: http.Header{},
			Body:   io.NopCloser(strings.NewReader(body)),
		}
		req.SetPathValue("mode", mode)
		rec := httptest.NewRecorder()
		srv.handleVerify(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d:\n%s", rec.Code, rec.Body)
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		for _, line := range lines {
			if strings.HasPrefix(line, `{"susc":"error"`) {
				t.Fatalf("a verification panicked:\n%s", rec.Body)
			}
		}
		var done doneLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil || done.Susc != "done" {
			t.Fatalf("the stream does not end with a done line:\n%s", rec.Body)
		}
		if done.Exit == 2 {
			t.Fatalf("exit 2 (internal error):\n%s", rec.Body)
		}
	})
}
