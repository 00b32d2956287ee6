package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The traced run attributes CPU time to this repository's modules from a
// runtime/pprof CPU profile. The standard library writes profiles but has
// no public reader, so this file decodes the few fields attribution needs
// from the gzipped profile.proto message.

// modules are the layers CPU time is attributed to, in report order.
// simnet.shard is simnet's sharded executor (its shard*.go and xlink.go
// files). workload also takes the benchmark's own closed-loop load
// generators (package main), which stand in for workload.Runner.
var modules = []string{
	"simnet", "simnet.shard", "wireless", "cellular", "mtcp", "imode", "wap",
	"markup", "webserver", "device", "apps", "security", "database", "repl",
	"mobiledb", "core", "workload", "metrics", "trace", "faults", "obs",
}

const internalPrefix = "mcommerce/internal/"

// cpuProfile is a CPU profile reduced to CPU nanoseconds per module.
type cpuProfile struct {
	samples int64
	total   int64            // CPU ns over every sample
	byMod   map[string]int64 // CPU ns whose innermost repository frame is in the module
	runtime int64            // CPU ns with no repository frame (GC, scheduler)
	other   int64            // CPU ns in repository packages outside modules
}

// add pools o into p.
func (p *cpuProfile) add(o *cpuProfile) {
	p.samples += o.samples
	p.total += o.total
	p.runtime += o.runtime
	p.other += o.other
	for m, ns := range o.byMod {
		p.byMod[m] += ns
	}
}

// moduleOf names the module a function belongs to: the innermost
// repository frame decides. It returns "" for functions outside the
// repository (runtime, standard library), which the caller skips.
func moduleOf(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "workload"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	mod := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		mod = rest[:i]
	}
	if base := path.Base(file); mod == "simnet" && (strings.HasPrefix(base, "shard") || strings.HasPrefix(base, "xlink")) {
		return "simnet.shard"
	}
	return mod
}

// attribute decodes a gzipped CPU profile and sums each sample's CPU time
// into the module of its innermost repository frame.
func attribute(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64][2]int64{} // function -> (name, filename) string indexes
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
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
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var nf [2]int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			})
			fnName[id] = nf
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	modOf := map[uint64]string{}
	for id, nf := range fnName {
		modOf[id] = moduleOf(str(nf[0]), str(nf[1]))
	}
	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
	}
	p := &cpuProfile{byMod: map[string]int64{}}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		ns := s.vals[1] // [samples/count, cpu/nanoseconds]
		p.samples += s.vals[0]
		p.total += ns
		mod := ""
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if mod = modOf[fn]; mod != "" {
					break walk
				}
			}
		}
		switch {
		case mod == "":
			p.runtime += ns
		case known[mod]:
			p.byMod[mod] += ns
		default:
			p.other += ns
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
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
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
