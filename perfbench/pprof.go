package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuModules are the buckets of the CPU attribution: the program's layers
// (packages under repro/internal), background GC, the harness itself
// ("client") and everything else (net/http, syscalls, the scheduler).
var cpuModules = []string{
	"server", "resilience", "obs", "store", "dataset", "wal",
	"engine", "detect", "armodel", "trust", "gc", "client", "other",
}

const internalPrefix = "repro/internal/"

// attributeProfile adds the samples of a runtime/pprof CPU profile to
// counts. A sample is charged to the innermost frame of a listed
// repro/internal module; helper packages that are not listed (stats,
// epoch, faultfs, ...) fall through to their nearest listed caller.
// Samples with no such frame go to gc when they run on a GC worker, to
// client when a harness frame (this package: "main", or "repro/perfbench"
// in its test binary) is on the stack, and to other otherwise.
func attributeProfile(gz []byte, counts map[string]int64) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	listed := map[string]bool{}
	for _, m := range cpuModules {
		listed[m] = true
	}
	for _, s := range p.samples {
		bucket := "other"
		harness, gcWorker := false, false
	frames:
		for _, loc := range s.locs { // leaf first
			for _, fn := range p.locFuncs[loc] { // innermost inline first
				name := p.strings[p.funcName[fn]]
				switch {
				case strings.HasPrefix(name, internalPrefix):
					mod := name[len(internalPrefix):]
					if i := strings.IndexAny(mod, "./"); i >= 0 {
						mod = mod[:i]
					}
					if listed[mod] {
						bucket = mod
						break frames
					}
				case strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "repro/perfbench."):
					harness = true
				case name == "runtime.gcBgMarkWorker" || name == "runtime.bgsweep" || name == "runtime.bgscavenge":
					gcWorker = true
				}
			}
		}
		if bucket == "other" {
			switch {
			case gcWorker:
				bucket = "gc"
			case harness:
				bucket = "client"
			}
		}
		counts[bucket] += s.count
	}
	return nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs  []uint64
	count int64
}

// decodeProfile parses the protobuf encoding of a pprof profile: field 2
// samples (1 location ids, 2 values), 4 locations (1 id, 4 lines with
// 1 function id), 5 functions (1 id, 2 name) and 6 the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 2:
			var s sample
			var values []uint64
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					values = appendVarints(values, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("pprof: function name out of string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field that arrived either as
// one varint (v) or packed (data).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data = b[n : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return errors.New("pprof: unsupported wire type")
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the byte count (0 or less on
// malformed input).
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
