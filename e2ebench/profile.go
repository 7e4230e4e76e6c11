package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// modules are the program's layers that CPU time is charged to, named
// by their package under dynamicmr/internal.
var modules = []string{
	"sim", "mapreduce", "sampling", "dataset", "tpch", "data", "expr", "hive",
	"core", "trace", "qstats", "tsdb", "obs", "diag", "runarchive",
}

// CPU-share buckets besides the named modules.
const (
	bucketOtherModules = "other_modules" // other dynamicmr packages, e.g. cluster, dfs
	bucketGC           = "gc"            // background GC with no dynamicmr frame
	bucketOther        = "other"         // the rest: runtime, the benchmark itself
)

// cpuShares attributes every sample of the CPU profiles (gzipped
// profile.proto, as runtime/pprof writes it) to the innermost
// dynamicmr frame on its stack, and returns each bucket's share of the
// samples.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	named := map[string]bool{}
	for _, m := range modules {
		named[m] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, gz := range profiles {
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		p, err := decodeProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			var frames []string
			for _, loc := range s.locations {
				for _, fn := range p.locations[loc] {
					frames = append(frames, p.strings[p.functions[fn]])
				}
			}
			b := bucket(frames, named)
			counts[b] += s.count
			total += s.count
		}
	}
	shares := map[string]float64{}
	for _, m := range append(append([]string(nil), modules...), bucketOtherModules, bucketGC, bucketOther) {
		if total > 0 {
			shares[m] = float64(counts[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// bucket names the layer a stack (innermost frame first) is charged to.
func bucket(frames []string, named map[string]bool) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") { // the benchmark's own code
			return bucketOther
		}
		if rest, ok := strings.CutPrefix(f, "dynamicmr/internal/"); ok {
			mod := rest[:strings.IndexAny(rest+".", "./")]
			if named[mod] {
				return mod
			}
			return bucketOtherModules
		}
		if strings.HasPrefix(f, "dynamicmr.") {
			return bucketOtherModules
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.runfinq":
			return bucketGC
		}
	}
	return bucketOther
}

// profile is the part of a profile.proto message the attribution reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64 // innermost first
	count     int64
}

// decodeProfile reads the profile.proto wire format: Profile.sample (2),
// .location (4), .function (5) and .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s sample
			var values []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					s.locations = appendVarints(s.locations, v, sub)
				case 2:
					values = appendVarints(values, v, sub)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0]) // values[0] counts samples
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values: v for an
// unpacked element (sub nil), or every varint of a packed run.
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint's value, sub a length-delimited payload (nil otherwise).
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
