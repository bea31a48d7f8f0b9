package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers the traced run splits host CPU time into,
// named after the packages under internal/ ("runtime" is allocation,
// garbage collection and scheduling; "other" is config, campaign and
// the benchmark itself).
var cpuBuckets = []string{"sim", "network", "coherence", "hostproto", "core", "accel", "seq", "consistency", "obs", "runtime", "other"}

// layerOf maps an import path to its bucket. Utility packages (mem,
// cacheset, perm, xlate, stats) and the standard library report ok=false:
// their time belongs to the layer that called them.
func layerOf(pkg string) (string, bool) {
	rest, ok := strings.CutPrefix(pkg, "crossingguard/internal/")
	if !ok {
		if pkg == "main" {
			return "other", true
		}
		return "", false
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "sim", "network", "coherence", "hostproto", "core", "accel", "seq", "consistency", "obs":
		return top, true
	case "faults": // the fabric's fault-injection interceptor
		return "network", true
	case "tester", "workload": // they drive the sequencers
		return "seq", true
	case "mem", "cacheset", "perm", "xlate", "stats":
		return "", false
	}
	return "other", true
}

// pkgOf returns the import path of a profiled function name such as
// "crossingguard/internal/hostproto/hammer.(*Cache).Recv".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf attributes one stack (leaf first). Allocation and garbage
// collection count as runtime wherever they run: a stack through
// runtime.mallocgc or a runtime.gc* function (assists, write barriers),
// and a stack with no program frame (background mark workers, sweeper,
// scheduler). Any other sample goes to the first layer found walking
// from the leaf towards the root, so the runtime's copy and map helpers
// count for the layer that called them.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.mallocgc" || strings.HasPrefix(fn, "runtime.gc") {
			return "runtime"
		}
	}
	for _, fn := range stack {
		if b, ok := layerOf(pkgOf(fn)); ok {
			return b
		}
	}
	return "runtime"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each
// bucket's share of its sampled CPU time (all 0 without samples).
func cpuShares(gz []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcName(fid))
			}
		}
		shares[bucketOf(stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// profile is the part of the pprof protobuf the bucketing needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value (CPU nanoseconds)
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

// decodeProfile reads a gzipped pprof protobuf.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(b, func(f int, v uint64, data []byte) error {
		switch f {
		case fProfileSample:
			var s profSample
			var vals []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				var err error
				switch f {
				case fSampleLocation:
					s.locs, err = appendVarints(s.locs, v, d)
				case fSampleValue:
					vals, err = appendVarints(vals, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case fProfileString:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, handing fn each field's number
// with its varint value (wire type 0) or its bytes (wire type 2);
// fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (data) or not.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
