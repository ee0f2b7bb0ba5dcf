package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
)

// MaxFrame bounds a single wire frame body. DOLBIE messages are a
// handful of scalars, so anything near this limit indicates corruption;
// readers reject oversized declarations before reading (or allocating)
// the body.
const MaxFrame = 1 << 20

// Codec turns envelopes into frame bodies and back. Implementations
// must be stateless and safe for concurrent use; the shared framing
// (length prefix, MaxFrame guard, buffer pooling) lives in WriteFrame
// and ReadFrame so codecs only define the body encoding.
type Codec interface {
	// Name is the codec's registry name ("json", "binary").
	Name() string
	// AppendBody appends env's encoded frame body to dst and returns the
	// extended slice. Inconsistent envelopes (a payload no kind
	// carries, routing the payload contradicts) are an error.
	AppendBody(dst []byte, env Envelope) ([]byte, error)
	// DecodeBody parses one complete frame body. It must not retain
	// body, which is returned to a shared pool by the caller, and must
	// return an error — never panic — on malformed, truncated, or
	// version-mismatched input.
	DecodeBody(body []byte) (Envelope, error)
}

// Registered codecs.
var (
	// JSON is the debugging/compat codec: one JSON object per frame,
	// byte-compatible with the runtime's original framing.
	JSON Codec = jsonCodec{}
	// Binary is the compact versioned binary codec (version byte,
	// kind/from/to header, fixed-width scalar payloads).
	Binary Codec = binaryCodec{}
	// Default is the codec used by transports when none is selected.
	Default = Binary
)

var codecs = map[string]Codec{
	JSON.Name():   JSON,
	Binary.Name(): Binary,
}

// ByName resolves a registry name to its codec.
func ByName(name string) (Codec, error) {
	c, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("wire: unknown codec %q (have %v)", name, Names())
	}
	return c, nil
}

// Names lists the registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// frameSizer is implemented by codecs whose frame sizes are pure
// arithmetic (no encoding needed); FrameSize uses it as a fast path.
type frameSizer interface {
	frameSize(env Envelope) (int, error)
}

// bufPool recycles encode/decode scratch buffers across frames. Frames
// are small (tens to a few hundred bytes), so a single shared pool with
// a modest initial capacity serves every transport.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

const lenPrefix = 4 // big-endian uint32 body length

// WriteFrame encodes env with c and writes one length-prefixed frame to
// w, returning the total bytes written. The encode buffer is pooled;
// the returned size is the frame as it crossed the wire, so callers can
// meter traffic without re-marshaling.
func WriteFrame(w io.Writer, c Codec, env Envelope) (int, error) {
	bp := bufPool.Get().(*[]byte)
	defer func() {
		bufPool.Put(bp)
	}()
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf, err := c.AppendBody(buf, env)
	*bp = buf[:0] // retain any growth for the pool
	if err != nil {
		return 0, fmt.Errorf("wire: encode %s frame: %w", c.Name(), err)
	}
	body := len(buf) - lenPrefix
	if body > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", body, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[:lenPrefix], uint32(body))
	n, err := w.Write(buf)
	if err != nil {
		return n, err
	}
	return n, nil
}

// ReadFrame reads one length-prefixed frame from r and decodes it with
// c, returning the envelope and the total bytes consumed. A declared
// body length above MaxFrame is rejected before any body byte is read,
// so a corrupt or hostile peer cannot force a large allocation.
func ReadFrame(r io.Reader, c Codec) (Envelope, int, error) {
	var hdr [lenPrefix]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, 0, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrame {
		return Envelope{}, lenPrefix, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", size, MaxFrame)
	}
	bp := bufPool.Get().(*[]byte)
	defer func() {
		bufPool.Put(bp)
	}()
	buf := *bp
	if cap(buf) < int(size) {
		buf = make([]byte, size)
		*bp = buf[:0]
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, lenPrefix, err
	}
	env, err := c.DecodeBody(buf)
	if err != nil {
		return Envelope{}, lenPrefix + int(size), fmt.Errorf("wire: decode %s frame: %w", c.Name(), err)
	}
	return env, lenPrefix + int(size), nil
}

// FrameSize returns the full on-the-wire frame size (length prefix
// included) of env under c without re-marshaling where possible: the
// binary codec's sizes are computed arithmetically; the JSON codec
// encodes once into a pooled scratch buffer. In-memory transports use
// it to meter simulated traffic consistently with the real framing.
func FrameSize(c Codec, env Envelope) (int, error) {
	if s, ok := c.(frameSizer); ok {
		return s.frameSize(env)
	}
	bp := bufPool.Get().(*[]byte)
	defer func() {
		bufPool.Put(bp)
	}()
	buf, err := c.AppendBody((*bp)[:0], env)
	*bp = buf[:0]
	if err != nil {
		return 0, fmt.Errorf("wire: size %s frame: %w", c.Name(), err)
	}
	return lenPrefix + len(buf), nil
}
