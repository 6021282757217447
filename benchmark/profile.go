package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime"
	"strings"
)

// The traced pass attributes every CPU-profile sample to one layer: the
// package of its innermost repository frame. Frames outside the
// repository (the standard library, the runtime) are skipped, so
// math.Exp called from sim/rng.go is charged to sim.rng; a sample with
// no repository frame at all (GC workers, the scheduler) is charged to
// runtime. Inlined frames keep their own file, so a closure inlined into
// the benchmark's main is still charged to the package that wrote it.

// layers lists every layer the attribution can name, in report order.
var layers = []string{
	"sim.engine", "sim.rng", "nic", "kernel", "cpu", "governor", "core",
	"audit", "stats", "workload", "server", "cluster", "faults",
	"experiments", "bench", "runtime",
}

// repoRoot is the prefix the benchmark's own source files carry in the
// binary's frame table: "nmapsim/" in a -trimpath build, the checkout's
// absolute path otherwise.
var repoRoot = func() string {
	_, file, _, _ := runtime.Caller(0)
	return path.Dir(path.Dir(file)) + "/"
}()

// repoRel returns file's path relative to the repository root, or false
// for a file outside the repository. Without -trimpath every repository
// file sits under repoRoot. With it, the simulator — a dependency of the
// benchmark's module — is recorded under its module path and version,
// as in "nmapsim@v0.0.0/internal/sim/rng.go".
func repoRel(file string) (string, bool) {
	if rel, ok := strings.CutPrefix(file, repoRoot); ok {
		return rel, true
	}
	if versioned, ok := strings.CutPrefix(file, strings.TrimSuffix(repoRoot, "/")+"@"); ok {
		_, rel, ok := strings.Cut(versioned, "/")
		return rel, ok
	}
	return "", false
}

// layerOf maps a frame's source file to its layer, or "" when the file
// lies outside the repository.
func layerOf(file string) string {
	rel, ok := repoRel(file)
	if !ok {
		return ""
	}
	pkg, ok := strings.CutPrefix(rel, "internal/")
	if !ok {
		if strings.HasPrefix(rel, "benchmark/") {
			return "bench"
		}
		return "experiments"
	}
	pkg, file, _ = strings.Cut(pkg, "/")
	switch pkg {
	case "sim":
		if file == "rng.go" {
			return "sim.rng"
		}
		return "sim.engine"
	case "nic", "kernel", "cpu", "governor", "core", "audit", "stats",
		"workload", "server", "cluster", "faults", "experiments":
		return pkg
	case "baselines":
		// The baseline power policies plug into the governor slot.
		return "governor"
	}
	// Harness-side packages (report, fuzzer, harnesschaos).
	return "experiments"
}

// layerCost is the profile share of one layer.
type layerCost struct {
	Samples, Ns int64
}

// profile is the part of a Go CPU profile the attribution reads.
type profile struct {
	samples []profSample
	// frames maps a location id to its frames' source files, innermost
	// (inlined) frame first.
	frames map[uint64][]string
}

// profSample is one stack: location ids leaf first, and the values of
// a Go CPU profile, [sample count, CPU nanoseconds].
type profSample struct {
	locs   []uint64
	values []int64
}

// attribute charges every sample to the layer of its innermost
// repository frame. The layers' costs sum to the profile's totals.
func attribute(p *profile) map[string]layerCost {
	out := map[string]layerCost{}
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, f := range p.frames[loc] {
				if l := layerOf(f); l != "" {
					layer = l
					break stack
				}
			}
		}
		c := out[layer]
		c.Samples += s.values[0]
		c.Ns += s.values[1]
		out[layer] = c
	}
	return out
}

// decodeProfile parses a gzip-compressed pprof protobuf, as
// runtime/pprof writes it, with the standard library alone.
func decodeProfile(gz []byte) (*profile, error) {
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
		funcFile  = map[uint64]int64{} // function id → string index
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{frames: map[uint64][]string{}}
		top       = pbuf(raw)
		field, wt int
	)
	for len(top) > 0 {
		if field, wt, err = top.key(); err != nil {
			return nil, err
		}
		if wt != wireBytes {
			if err = top.skip(wt); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := top.bytes()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			s, err := decodeSample(msg)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fns, err := decodeLocation(msg)
			if err != nil {
				return nil, err
			}
			locFuncs[id] = fns
		case 5: // Function
			id, file, err := decodeFunction(msg)
			if err != nil {
				return nil, err
			}
			funcFile[id] = file
		case 6: // string_table
			strs = append(strs, string(msg))
		}
	}
	for id, fns := range locFuncs {
		files := make([]string, len(fns))
		for i, fn := range fns {
			if s := funcFile[fn]; s >= 0 && s < int64(len(strs)) {
				files[i] = strs[s]
			}
		}
		p.frames[id] = files
	}
	return p, nil
}

func decodeSample(msg pbuf) (profSample, error) {
	var s profSample
	for len(msg) > 0 {
		field, wt, err := msg.key()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = msg.uints(wt, s.locs)
		case 2:
			var vs []uint64
			vs, err = msg.uints(wt, nil)
			for _, v := range vs {
				s.values = append(s.values, int64(v))
			}
		default:
			err = msg.skip(wt)
		}
		if err != nil {
			return s, err
		}
	}
	if len(s.values) != 2 {
		return s, fmt.Errorf("profile: sample has %d values, want a CPU profile's 2", len(s.values))
	}
	return s, nil
}

// decodeLocation returns a location's id and its lines' function ids,
// innermost first.
func decodeLocation(msg pbuf) (id uint64, fns []uint64, err error) {
	for len(msg) > 0 {
		field, wt, err := msg.key()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case field == 1 && wt == wireVarint:
			id, err = msg.varint()
		case field == 4 && wt == wireBytes:
			var line pbuf
			if line, err = msg.bytes(); err == nil {
				var fn uint64
				fn, err = firstVarint(line, 1)
				fns = append(fns, fn)
			}
		default:
			err = msg.skip(wt)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return id, fns, nil
}

// decodeFunction returns a function's id and the string index of its
// file name.
func decodeFunction(msg pbuf) (id uint64, file int64, err error) {
	for len(msg) > 0 {
		field, wt, err := msg.key()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case field == 1 && wt == wireVarint:
			id, err = msg.varint()
		case field == 4 && wt == wireVarint:
			var v uint64
			v, err = msg.varint()
			file = int64(v)
		default:
			err = msg.skip(wt)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return id, file, nil
}

// firstVarint returns the first varint field numbered field in msg (0
// when absent).
func firstVarint(msg pbuf, field int) (uint64, error) {
	for len(msg) > 0 {
		f, wt, err := msg.key()
		if err != nil {
			return 0, err
		}
		if f == field && wt == wireVarint {
			return msg.varint()
		}
		if err := msg.skip(wt); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf is an unread protobuf message.
type pbuf []byte

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for i, c := range *b {
		if i == 10 {
			break
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			*b = (*b)[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (b *pbuf) key() (field, wire int, err error) {
	k, err := b.varint()
	return int(k >> 3), int(k & 7), err
}

func (b *pbuf) bytes() (pbuf, error) {
	n, err := b.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(*b)) {
		return nil, errTruncated
	}
	msg := (*b)[:n]
	*b = (*b)[n:]
	return msg, nil
}

func (b *pbuf) skip(wire int) error {
	var n int
	switch wire {
	case wireVarint:
		_, err := b.varint()
		return err
	case wireBytes:
		_, err := b.bytes()
		return err
	case wire64:
		n = 8
	case wire32:
		n = 4
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	if len(*b) < n {
		return errTruncated
	}
	*b = (*b)[n:]
	return nil
}

// uints appends a repeated integer field, packed or not, to dst.
func (b *pbuf) uints(wire int, dst []uint64) ([]uint64, error) {
	if wire == wireVarint {
		v, err := b.varint()
		return append(dst, v), err
	}
	if wire != wireBytes {
		return dst, fmt.Errorf("profile: integer field with wire type %d", wire)
	}
	packed, err := b.bytes()
	for err == nil && len(packed) > 0 {
		var v uint64
		v, err = packed.varint()
		dst = append(dst, v)
	}
	return dst, err
}
