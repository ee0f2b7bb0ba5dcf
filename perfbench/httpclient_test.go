package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRawClientParsesReplies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("shed") != "" {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"id":8,"outcome":"shed","worker":-1}` + "\n"))
			return
		}
		_, _ = w.Write([]byte(`{"id":7,"outcome":"routed","worker":5}` + "\n"))
	}))
	defer srv.Close()
	c, err := dialRaw(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok := []byte("POST /ingest?demand=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
	shed := []byte("POST /ingest?shed=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
	// Several requests over one keep-alive connection, interleaving
	// statuses, must each parse on their own.
	for i := 0; i < 3; i++ {
		r, err := c.do(ok)
		if err != nil || r.status != 200 || r.retryAfter != -1 {
			t.Fatalf("ok reply %d: %+v, %v", i, r, err)
		}
		outcome, worker, err := parseVerdict(r.body)
		if err != nil || outcome != "routed" || worker != 5 {
			t.Fatalf("verdict %q: %s %d %v", r.body, outcome, worker, err)
		}
		r, err = c.do(shed)
		if err != nil || r.status != 429 || r.retryAfter != 3 {
			t.Fatalf("shed reply %d: %+v, %v", i, r, err)
		}
		if outcome, worker, err = parseVerdict(r.body); err != nil || outcome != "shed" || worker != -1 {
			t.Fatalf("shed verdict %q: %s %d %v", r.body, outcome, worker, err)
		}
	}
}

func TestReadReplyRejectsMalformed(t *testing.T) {
	for _, raw := range []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 2x0 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n", // no Content-Length
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: soon\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
	} {
		if _, err := readReply(bufio.NewReader(strings.NewReader(raw)), nil); err == nil {
			t.Errorf("readReply(%q) accepted a malformed reply", raw)
		}
	}
	for _, body := range []string{`{"id":1}`, `{"outcome":"routed"}`, `{"outcome":"routed","worker":x}`} {
		if _, _, err := parseVerdict([]byte(body)); err == nil {
			t.Errorf("parseVerdict(%q) accepted a malformed verdict", body)
		}
	}
}
