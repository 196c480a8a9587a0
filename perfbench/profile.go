package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Per-layer self time comes from a CPU profile of the workload's own work,
// not from spans: spans only surround whole experiment.Run calls, so they
// cannot split a run between the packages it calls. Each profile sample is
// charged to the innermost frame that belongs to a package under internal/,
// so runtime work a layer causes (allocation, map and heap operations)
// counts as that layer's. Samples with no such frame are charged to
// "runtime" (GC workers, the scheduler) or, when the benchmark's own code
// is on the stack, to "bench", which is not reported.

const layerPrefix = "repro/internal/"

// selfProfile accumulates CPU time per layer over one or more profiled
// stretches.
type selfProfile struct {
	buf bytes.Buffer
	ns  map[string]int64
}

func newSelfProfile() *selfProfile { return &selfProfile{ns: map[string]int64{}} }

func (p *selfProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the current stretch and adds its samples.
func (p *selfProfile) stop() error {
	pprof.StopCPUProfile()
	return addLayerTimes(p.ns, p.buf.Bytes())
}

// addLayerTimes decodes a gzipped profile.proto CPU profile and adds each
// sample's CPU nanoseconds to its layer in ns.
func addLayerTimes(ns map[string]int64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	cpu := -1
	for i, t := range prof.sampleTypes {
		if prof.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 && len(prof.samples) > 0 {
		return errors.New("profile has no cpu sample type")
	}
	for _, s := range prof.samples {
		if cpu < len(s.values) {
			ns[prof.layerOf(s.locations)] += s.values[cpu]
		}
	}
	return nil
}

// layerOf names the layer a sample's stack is charged to (leaf first).
func (p *profile) layerOf(stack []uint64) string {
	bench := false
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			name := p.str(p.functions[fn])
			if rest, ok := strings.CutPrefix(name, layerPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
			bench = bench || strings.HasPrefix(name, "main.")
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// profile is the part of profile.proto the layer attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profSample
	locations   map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions   map[uint64]int64    // function ID -> string-table index of its name
	strings     []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the fields of an uncompressed profile.proto message
// that layerOf and addLayerTimes use.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(msg, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample: Sample{location_id = 1, value = 2}
			var s profSample
			err := eachField(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id = 1, line = 4 (Line{function_id = 1})}
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(line, func(f int, v uint64, _ []byte) error {
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
		case 5: // function: Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
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
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, msg a length-delimited one.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad tag")
		}
		b = b[n:]
		field := int(tag >> 3)
		var v uint64
		var msg []byte
		switch tag & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", tag&7)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint visits a repeated varint field given either as one value or
// packed.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
