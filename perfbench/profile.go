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

// modules are the repository packages a CPU sample can be charged to,
// plus two buckets for the Go runtime: go.gc (collector and sweeper
// work, in the background or assisting an allocation) and go.other
// (stacks with no repository or benchmark frame, such as the scheduler).
var modules = []string{
	"sim", "atm", "checksum", "tcp", "ip", "sock", "mbuf", "kern", "pcb",
	"ether", "udp", "rudp", "workload", "lab", "stats", "go.gc", "go.other",
}

const modulePrefix = "repro/internal/"

// bucket charges one sample, given its stack innermost frame first, to
// a module: go.gc when any frame is collector work, else the innermost
// frame in a named repository package (so runtime and unnamed helpers
// such as cost and trace count for their caller), else go.other when no
// frame outside the runtime and standard library exists. Anything else
// — the benchmark's own code and the runner's scheduling — returns "".
func bucket(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "go.gc"
		}
	}
	own := false
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if m, ok := strings.CutPrefix(pkg, modulePrefix); ok {
			for _, name := range modules {
				if m == name {
					return m
				}
			}
		}
		if pkg == "main" || strings.HasPrefix(pkg, "repro/") {
			own = true
		}
	}
	if own {
		return ""
	}
	return "go.other"
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.deductSweepCredit":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// pkgOf returns the import path of a symbol such as
// "repro/internal/atm.(*Switch).forward".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and returns its sample count per bucket (unattributed
// samples under "") and its sampling period in nanoseconds.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []struct {
			locs  []uint64
			count int64
		}
		period int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s struct {
				locs  []uint64
				count int64
			}
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without value")
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		case 12:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	folded := map[string]int64{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		folded[bucket(stack)] += s.count
	}
	return folded, period, nil
}

// fields walks the top-level fields of one protobuf message, passing
// each varint field's value or each length-delimited field's bytes.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder
// writes either packed (data) or one value per field (v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
