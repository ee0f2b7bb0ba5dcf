package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileStacks decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) into one entry per sample: its sample count and
// the function names on its stack, inlined frames included. Only the
// fields needed to attribute samples to functions are read; everything
// else in profile.proto is skipped.
func profileStacks(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			id, fns, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var names []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					names = append(names, strs[i])
				}
			}
		}
		out = append(out, stackSample{count: s.count, funcs: names})
	}
	return out, nil
}

type stackSample struct {
	count int64
	funcs []string
}

type rawSample struct {
	locs  []uint64
	count int64
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	first := true
	err := pbFields(b, func(field, wire int, v uint64, pb []byte) error {
		switch field {
		case 1:
			if wire == 2 {
				return pbPacked(pb, func(x uint64) { s.locs = append(s.locs, x) })
			}
			s.locs = append(s.locs, v)
		case 2: // value[0] is the sample count
			take := func(x uint64) {
				if first {
					s.count, first = int64(x), false
				}
			}
			if wire == 2 {
				return pbPacked(pb, take)
			}
			take(v)
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := pbFields(b, func(field, _ int, v uint64, lb []byte) error {
		switch field {
		case 1:
			id = v
		case 4: // line: function_id is field 1
			return pbFields(lb, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks the top-level fields of a protobuf message, passing
// varint values in v and length-delimited bodies in b.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// layer names a set of program entry points by full function name
// (exact match) or by prefix (names ending in "." or ").").
type layer struct {
	name    string
	entries []string
}

func (l layer) matches(fn string) bool {
	for _, e := range l.entries {
		if strings.HasSuffix(e, ".") {
			if strings.HasPrefix(fn, e) {
				return true
			}
		} else if fn == e {
			return true
		}
	}
	return false
}

// profileShares tallies the cumulative sample counts of each layer: a
// sample counts toward a layer when any frame on its stack is one of
// the layer's entry points.
type profileShares struct {
	total  int64
	counts map[string]int64
}

func newProfileShares() *profileShares {
	return &profileShares{counts: map[string]int64{}}
}

// add attributes samples to layers. A layer with an "outside" list
// counts only samples in which none of those layers' entry points
// appear, which isolates an engine loop from the calls it makes.
func (p *profileShares) add(samples []stackSample, layers []layer, outside map[string][]string) {
	for _, s := range samples {
		p.total += s.count
		hit := map[string]bool{}
		for _, l := range layers {
			for _, fn := range s.funcs {
				if l.matches(fn) {
					hit[l.name] = true
					break
				}
			}
		}
		for _, l := range layers {
			if !hit[l.name] {
				continue
			}
			excluded := false
			for _, o := range outside[l.name] {
				if hit[o] {
					excluded = true
				}
			}
			if !excluded {
				p.counts[l.name] += s.count
			}
		}
	}
}

func (p *profileShares) share(name string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.counts[name]) / float64(p.total)
}

const (
	pkgDispatch = "dolbie/internal/dispatch."
	pkgCluster  = "dolbie/internal/cluster."
	pkgCore     = "dolbie/internal/core."
)

// profiledLayers are the program's entry points whose cumulative CPU
// share the traced run reports, for layers that run only inside one
// call (Serve's loop, the peer goroutines of a deployment). Each is
// named by its per-layer metric.
var profiledLayers = []layer{
	{"dispatch.admit.share", []string{pkgDispatch + "(*Dispatcher).Submit", pkgDispatch + "(*Submitter).SubmitBatch"}},
	{"dispatch.complete.share", []string{pkgDispatch + "(*Dispatcher).Complete", pkgDispatch + "(*Dispatcher).Head", pkgDispatch + "(*Dispatcher).CompleteBatch"}},
	{"stats.percentile.share", []string{"dolbie/internal/stats.Percentile"}},
	{"trace.share", []string{"dolbie/internal/trace."}},
	{"core.step.share", []string{pkgCore}},
	{"core.peer.share", []string{pkgCore + "(*PeerState)."}},
	{"cluster.memnet.share", []string{pkgCluster + "(*MemNet).", pkgCluster + "(*memTransport)."}},
	{"dispatch.serve.loop_share", []string{pkgDispatch + "serveWith"}},
}

// profiledOutside makes dispatch.serve.loop_share the engine's own
// work: the samples under serveWith in none of the layers it calls.
var profiledOutside = map[string][]string{
	"dispatch.serve.loop_share": {"dispatch.admit.share", "dispatch.complete.share", "stats.percentile.share", "trace.share", "core.step.share"},
}
