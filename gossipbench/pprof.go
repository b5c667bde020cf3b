package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// This file reads the CPU profile of the traced run — gzipped protobuf in
// the pprof format — with just enough of a decoder to charge each sample
// to a layer, so the benchmark needs nothing beyond the standard library.

// profileSplit is the traced run's CPU split.
type profileSplit struct {
	samples int64
	// layer: share of samples whose innermost repro frame is in the layer
	// ("runtime" when the stack has none; "bench" for this program).
	layer map[string]float64
	// net: share of samples with a net, syscall or internal/poll frame.
	net float64
}

// probeLabel is the goroutine label set around the reference probe; its
// samples are benchmark overhead and left out of the split.
const probeLabel = "gossipbench"

type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields splits one protobuf message into fields.
func pbFields(buf []byte) ([]pbField, error) {
	var out []pbField
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return nil, errors.New("pprof: bad key")
		}
		buf = buf[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(buf)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			buf = buf[n:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 1:
			if len(buf) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			buf = buf[4:]
		default:
			return nil, errors.New("pprof: bad wire type")
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) []uint64 {
	if f.wire == 0 {
		return []uint64{f.v}
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

type pbSample struct {
	locs  []uint64
	count int64
	probe bool
}

// splitProfile decodes a gzipped CPU profile and charges its samples.
func splitProfile(gz []byte) (profileSplit, error) {
	split := profileSplit{layer: map[string]float64{}}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return split, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return split, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return split, err
	}
	var (
		strs    []string
		samples []pbSample
		locFns  = map[uint64][]uint64{} // location → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function → string index
	)
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.b))
		case 2:
			fs, err := pbFields(f.b)
			if err != nil {
				return split, err
			}
			var s pbSample
			for _, g := range fs {
				switch g.num {
				case 1:
					s.locs = append(s.locs, pbInts(g)...)
				case 2:
					if vs := pbInts(g); len(vs) > 0 && s.count == 0 {
						s.count = int64(vs[0])
					}
				case 3:
					// The benchmark sets exactly one goroutine label, around
					// the reference probe, so any label marks a probe sample.
					s.probe = true
				}
			}
			samples = append(samples, s)
		case 4:
			fs, err := pbFields(f.b)
			if err != nil {
				return split, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					lf, err := pbFields(g.b)
					if err != nil {
						return split, err
					}
					for _, h := range lf {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locFns[id] = fns
		case 5:
			fs, err := pbFields(f.b)
			if err != nil {
				return split, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			fnName[id] = name
		}
	}
	str := func(i uint64) string {
		if int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	counts := map[string]int64{}
	var total, net int64
	for _, s := range samples {
		if s.probe {
			continue
		}
		total += s.count
		layer := "runtime"
		found, isNet := false, false
		for _, loc := range s.locs { // leaf first
			for _, fn := range locFns[loc] { // innermost inlined frame first
				pkg := funcPackage(str(fnName[fn]))
				if !found {
					if l, ok := layerOf(pkg); ok {
						layer, found = l, true
					}
				}
				if pkg == "net" || pkg == "syscall" || pkg == "internal/poll" {
					isNet = true
				}
			}
		}
		counts[layer] += s.count
		if isNet {
			net += s.count
		}
	}
	split.samples = total
	if total > 0 {
		for l, c := range counts {
			split.layer[l] = float64(c) / float64(total)
		}
		split.net = float64(net) / float64(total)
	}
	return split, nil
}

// funcPackage returns the package path of a fully qualified function name
// such as "repro/internal/bitset.(*Matrix).UnionWith".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf maps a package to the layer it is charged to: a package of the
// repro module, or this program ("main" when built as a command,
// "repro/gossipbench" in its test binary).
func layerOf(pkg string) (string, bool) {
	switch {
	case pkg == "main" || pkg == "repro/gossipbench":
		return "bench", true
	case pkg == "repro":
		return "repro", true
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/"), true
	}
	return "", false
}
