package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// rawClient is a minimal HTTP/1.1 keep-alive client over one socket. It
// writes pre-encoded requests and parses replies in place, so the
// benchmark's own share of an ingest round trip is two syscalls and a
// header scan, with no allocation per request.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 4096), body: make([]byte, 0, 256)}, nil
}

func (c *rawClient) Close() error { return c.conn.Close() }

// reply is one parsed HTTP response. body aliases the client's buffer
// and is valid until the next request.
type reply struct {
	status     int
	retryAfter int // seconds; -1 when the header is absent
	body       []byte
}

// do sends one pre-encoded request and reads its reply.
func (c *rawClient) do(req []byte) (reply, error) {
	if _, err := c.conn.Write(req); err != nil {
		return reply{}, err
	}
	r, err := readReply(c.br, c.body[:0])
	c.body = r.body[:0]
	return r, err
}

var errReply = errors.New("malformed HTTP reply")

// readReply parses one HTTP/1.1 response with a Content-Length body.
// Chunked or connection-delimited bodies are rejected: the ingest
// handler always writes a short body in one piece, so net/http frames
// it with Content-Length.
func readReply(br *bufio.Reader, body []byte) (reply, error) {
	r := reply{retryAfter: -1, body: body}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return r, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return r, fmt.Errorf("%w: status line %q", errReply, line)
	}
	r.status, err = atoiBytes(line[9:12])
	if err != nil {
		return r, fmt.Errorf("%w: status line %q", errReply, line)
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return r, fmt.Errorf("%w: header %q", errReply, line)
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = atoiBytes(val); err != nil {
				return r, fmt.Errorf("%w: content length %q", errReply, val)
			}
		case bytes.EqualFold(key, []byte("Retry-After")):
			if r.retryAfter, err = atoiBytes(val); err != nil {
				return r, fmt.Errorf("%w: retry-after %q", errReply, val)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			return r, fmt.Errorf("%w: unsupported transfer encoding %q", errReply, val)
		}
	}
	if length < 0 {
		return r, fmt.Errorf("%w: no Content-Length", errReply)
	}
	if cap(r.body) < length {
		r.body = make([]byte, length)
	}
	r.body = r.body[:length]
	_, err = io.ReadFull(br, r.body)
	return r, err
}

func atoiBytes(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 9 {
		return 0, strconv.ErrSyntax
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, strconv.ErrSyntax
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// parseVerdict extracts the outcome and worker from an ingest reply
// body of the form {"id":N,"outcome":"routed","worker":W}.
func parseVerdict(body []byte) (outcome string, worker int, err error) {
	const oKey, wKey = `"outcome":"`, `"worker":`
	i := bytes.Index(body, []byte(oKey))
	if i < 0 {
		return "", 0, fmt.Errorf("%w: no outcome in %q", errReply, body)
	}
	rest := body[i+len(oKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", 0, fmt.Errorf("%w: unterminated outcome in %q", errReply, body)
	}
	switch string(rest[:j]) { // constant strings: no allocation
	case "routed":
		outcome = "routed"
	case "spilled":
		outcome = "spilled"
	default:
		outcome = string(rest[:j])
	}
	k := bytes.Index(body, []byte(wKey))
	if k < 0 {
		return "", 0, fmt.Errorf("%w: no worker in %q", errReply, body)
	}
	w := body[k+len(wKey):]
	neg := len(w) > 0 && w[0] == '-'
	if neg {
		w = w[1:]
	}
	end := 0
	for end < len(w) && w[end] >= '0' && w[end] <= '9' {
		end++
	}
	if worker, err = atoiBytes(w[:end]); err != nil {
		return "", 0, fmt.Errorf("%w: worker in %q", errReply, body)
	}
	if neg {
		worker = -worker
	}
	return outcome, worker, nil
}
