package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// modulePrefix is the import path prefix of the simulator's packages.
const modulePrefix = "github.com/gmtsim/gmt/internal/"

// cpuShares reads a CPU profile as runtime/pprof writes it (gzipped
// protobuf) and returns each cpu.* bucket's share of the sampled CPU
// time, plus the number of samples. A sample belongs to garbage
// collection if any frame is collector work; otherwise to the innermost
// frame's package among the simulator packages in cpuBuckets, so that
// runtime helpers (allocation, map access, copying) are charged to the
// package that called them; otherwise to networking if any frame is in
// the network stack; otherwise to "other".
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		strs      []string
		funcNames = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = protoFields(data, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := protoFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.value = int64(values[len(values)-1]) // CPU nanoseconds
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := protoFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	byBucket := map[string]int64{}
	var total int64
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		byBucket[cpuBucket(stack)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(byBucket[b]) / float64(total)
		}
	}
	return shares, len(samples), nil
}

// cpuBucket attributes one sampled stack, innermost frame first.
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, b := range cpuPackages {
				if pkg == b {
					return b
				}
			}
		}
	}
	for _, fn := range stack {
		for _, p := range []string{"net.", "net/", "crypto/", "internal/poll.", "syscall."} {
			if strings.HasPrefix(fn, p) {
				return "net"
			}
		}
	}
	return "other"
}

// protoFields calls fn for each field of one protobuf message: v holds a
// varint or fixed-width value, msg a length-delimited payload.
func protoFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProto
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed CPU profile")

// appendVarints appends a repeated integer field's values, which the
// encoder writes either one varint per field or packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst
}
