package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (a gzipped
// profile.proto) with the standard library alone, and attributes each
// sample to a layer of the repo.

// profile holds the parts of a decoded profile that attribution needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]profFunc
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: samples/count for a CPU profile
}

type profFunc struct {
	name, file string
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field's number and wire type, with its payload
// for length-delimited fields or its value for varints. Fixed-width
// fields are skipped.
func (r *pbReader) next() (field int, wire int, val uint64, data []byte) {
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		val = r.varint()
	case wireBytes:
		n := r.varint()
		if r.err == nil && n > uint64(len(r.b)) {
			r.err = io.ErrUnexpectedEOF
		}
		if r.err != nil {
			return
		}
		data, r.b = r.b[:n], r.b[n:]
	case wireI64, wireI32:
		n := 8
		if wire == wireI32 {
			n = 4
		}
		if len(r.b) < n {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[n:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, val), nil
	}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	type fn struct{ id, name, file uint64 }
	var strs []string
	var fns []fn
	r := pbReader{b: raw}
	for len(r.b) > 0 && r.err == nil {
		field, wire, _, data := r.next()
		if r.err != nil || wire != wireBytes {
			continue
		}
		switch field {
		case 2: // Sample
			var s profSample
			var vals []uint64
			sr := pbReader{b: data}
			for len(sr.b) > 0 && sr.err == nil {
				f, w, v, d := sr.next()
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					vals, err = uints(vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if sr.err != nil {
				return nil, sr.err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			lr := pbReader{b: data}
			for len(lr.b) > 0 && lr.err == nil {
				f, _, v, d := lr.next()
				switch f {
				case 1:
					id = v
				case 4: // Line: innermost inlined function first
					ln := pbReader{b: d}
					for len(ln.b) > 0 && ln.err == nil {
						if lf, _, lv, _ := ln.next(); lf == 1 {
							funcs = append(funcs, lv)
						}
					}
					if ln.err != nil {
						return nil, ln.err
					}
				}
			}
			if lr.err != nil {
				return nil, lr.err
			}
			p.locs[id] = funcs
		case 5: // Function
			var f fn
			fr := pbReader{b: data}
			for len(fr.b) > 0 && fr.err == nil {
				switch ff, _, v, _ := fr.next(); ff {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			if fr.err != nil {
				return nil, fr.err
			}
			fns = append(fns, f)
		case 6: // string table
			strs = append(strs, string(data))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, f := range fns {
		p.funcs[f.id] = profFunc{name: str(f.name), file: str(f.file)}
	}
	return p, nil
}

// unattributed is the layer of samples no rule claims.
const unattributed = "unattributed"

// layerSamples sums sample counts by layer. A sample whose leaf frame
// is the Go runtime (GC, allocation, maps, scheduling) is "runtime".
// Otherwise it belongs to the innermost frame in hpcc/internal/<module>,
// so a math or sort helper is charged to the module that called it;
// the shard layer is the sharding files of sim and topology plus every
// checkpoint and rollback. Frames of this benchmark are "bench".
func (p *profile) layerSamples() map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		out[p.layerOf(s.locs)] += s.count
	}
	return out
}

func (p *profile) layerOf(locs []uint64) string {
	leaf := true
	for _, l := range locs {
		for _, id := range p.locs[l] {
			f := p.funcs[id]
			if leaf && isRuntime(f.name) {
				return "runtime"
			}
			leaf = false
			if layer := repoLayer(f); layer != "" {
				return layer
			}
		}
	}
	return unattributed
}

func isRuntime(name string) bool {
	return strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "internal/runtime/")
}

func repoLayer(f profFunc) string {
	const internal = "hpcc/internal/"
	switch {
	case strings.HasPrefix(f.name, internal):
		if isShard(f) {
			return "shard"
		}
		mod := f.name[len(internal):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case strings.HasPrefix(f.name, "main."):
		return "bench"
	case strings.HasPrefix(f.name, "hpcc."):
		return "api"
	}
	return ""
}

func isShard(f profFunc) bool {
	for _, suffix := range []string{"/internal/sim/shard.go", "/internal/topology/shard.go",
		"/internal/topology/speculate.go", "/checkpoint.go"} {
		if strings.HasSuffix(f.file, suffix) {
			return true
		}
	}
	return strings.HasSuffix(f.name, ".Checkpoint") || strings.HasSuffix(f.name, ".Rollback")
}
