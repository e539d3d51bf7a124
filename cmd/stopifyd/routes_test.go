package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestRouteTable walks all thirteen routes: a wrong method gets 405 with an
// Allow header naming the right one, and a route about one run answers 400
// for a missing or garbled id and 404 for an id no run has.
func TestRouteTable(t *testing.T) {
	ts := newObserveServer(t, 97, false, &bytes.Buffer{})
	do := func(method, url string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for _, route := range []struct {
		method, path string
		guest        bool
	}{
		{"POST", "/run", false},
		{"POST", "/restore", false},
		{"GET", "/status", true},
		{"GET", "/output", true},
		{"POST", "/cancel", true},
		{"POST", "/pause", true},
		{"POST", "/resume", true},
		{"POST", "/snapshot", true},
		{"GET", "/profile", true},
		{"GET", "/metrics", false},
		{"GET", "/trace", false},
		{"GET", "/healthz", false},
		{"GET", "/readyz", false},
	} {
		wrong := []string{"POST", "PUT", "DELETE"}
		if route.method == "POST" {
			wrong = []string{"GET", "PUT", "DELETE"}
		}
		for _, m := range wrong {
			resp := do(m, ts.URL+route.path+"?id=1")
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: HTTP %d, want 405", m, route.path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); !strings.Contains(allow, route.method) {
				t.Errorf("%s %s: Allow %q, want it to name %s", m, route.path, allow, route.method)
			}
		}
		if resp := do(route.method, ts.URL+route.path); resp.StatusCode == http.StatusMethodNotAllowed || (resp.StatusCode == http.StatusNotFound && !route.guest) {
			t.Errorf("%s %s: HTTP %d from the right method", route.method, route.path, resp.StatusCode)
		}
		if !route.guest {
			continue
		}
		for query, want := range map[string]int{
			"":          http.StatusBadRequest,
			"?id=":      http.StatusBadRequest,
			"?id=seven": http.StatusBadRequest,
			"?id=-1":    http.StatusBadRequest,
			"?id=99999": http.StatusNotFound,
		} {
			if resp := do(route.method, ts.URL+route.path+query); resp.StatusCode != want {
				t.Errorf("%s %s%s: HTTP %d, want %d", route.method, route.path, query, resp.StatusCode, want)
			}
		}
	}
	// /trace filters by the same id parser.
	if resp := do("GET", ts.URL+"/trace?id=seven"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /trace?id=seven: HTTP %d, want 400", resp.StatusCode)
	}
}
