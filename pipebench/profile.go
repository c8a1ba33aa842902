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

// cpuProfile attributes CPU-profile samples to package buckets over one or
// more profiling segments (start/stop pairs), so a traced run can profile
// exactly the calls it measures and leave its own checks out. A nil
// *cpuProfile does nothing.
type cpuProfile struct {
	buf    bytes.Buffer
	counts map[string]int64
	total  int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{counts: map[string]int64{}} }

func (p *cpuProfile) start() error {
	if p == nil {
		return nil
	}
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return p.add(p.buf.Bytes())
}

// fractions returns each bucket's share of the samples taken, with every
// bucket of cpuBuckets present.
func (p *cpuProfile) fractions() map[string]float64 {
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	if p == nil || p.total == 0 {
		return out
	}
	for b, n := range p.counts {
		out[b] = float64(n) / float64(p.total)
	}
	return out
}

// add parses one gzip-compressed pprof profile and adds its samples.
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range prof.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range prof.locs[loc] {
				if int(prof.funcs[fn]) < len(prof.strs) {
					stack = append(stack, prof.strs[prof.funcs[fn]])
				}
			}
		}
		b := attribute(stack)
		p.counts[b] += s.count
		p.total += s.count
	}
	return nil
}

// attribute returns the bucket that owns a sample whose stack is frames,
// leaf first: the first frame in a layer the benchmark reports. Runtime,
// reflection and helper-library frames are transparent — an allocation or
// a DeepEqual is charged to the layer that called it. A stack with no
// reported layer is "runtime" work (GC, scheduler) if its leaf is in the
// runtime, else "other".
func attribute(frames []string) string {
	for _, f := range frames {
		if b := bucketOf(funcPackage(f)); b != "" {
			return b
		}
	}
	if len(frames) > 0 && isRuntimePkg(funcPackage(frames[0])) {
		return "runtime"
	}
	return "other"
}

// funcPackage returns the import path of a pprof function name. It strips
// the compiler's "type:.eq." / "type:.hash." prefixes (charging a generated
// equality to the type's package) and generic instantiation brackets, whose
// go.shape arguments hold dots and slashes of their own.
func funcPackage(name string) string {
	for _, pre := range []string{"type:.eq.", "type:.hash."} {
		name = strings.TrimPrefix(name, pre)
	}
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

const (
	repoInternal = "github.com/netmeasure/rlir/internal/"
	// benchPkg is this package's import path, which test binaries use in
	// place of "main".
	benchPkg = "github.com/netmeasure/rlir/pipebench"
)

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		(strings.HasPrefix(pkg, "internal/runtime/") && !isSyscallPkg(pkg))
}

func isSyscallPkg(pkg string) bool {
	return pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/syscall/unix"
}

// bucketOf maps an import path to its reported bucket, or "" for a
// transparent package.
func bucketOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, repoInternal):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, repoInternal), "/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "main" || pkg == benchPkg:
		return "bench"
	case isSyscallPkg(pkg):
		return "syscall"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "net" || pkg == "internal/poll":
		return "net"
	}
	return ""
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs   map[uint64]int64    // function ID -> name string index
	strs    []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the profile.proto fields attribution reads:
// Profile.sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walkProto(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := walkProto(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, data)
				case 2:
					if s.count == 0 { // value[0]: the sample count
						var vals []uint64
						if err := appendVarints(&vals, v, data); err != nil {
							return err
						}
						if len(vals) > 0 {
							s.count = int64(vals[0])
						}
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := walkProto(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return walkProto(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			p.locs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := walkProto(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed (data set) or not.
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

// walkProto calls fn for every field of a protobuf message: varints pass
// v, length-delimited fields pass data (non-nil), fixed-width fields are
// skipped.
func walkProto(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}
