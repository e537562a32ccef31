package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/harness"
)

// digestOutput hashes everything a cell returned: its typed value,
// walked field by field (unexported fields included, pointers
// followed, map entries sorted, floats by their exact bits), plus the
// Output's own counters and telemetry.
func digestOutput(out harness.Output) string {
	h := sha256.New()
	writeValue(h, reflect.ValueOf(out), 0)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// digestSum is digestBytes of everything written to h, a SHA-256.
func digestSum(h hash.Hash) string {
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// maxDepth bounds the walk. Cell values are plain trees of data, so
// only a pointer cycle reaches it; the walk then stops at the same
// place every time and the digest stays deterministic.
const maxDepth = 64

func writeValue(h hash.Hash, v reflect.Value, depth int) {
	w := func(s string) { h.Write([]byte(s)) }
	if depth > maxDepth {
		w("...;")
		return
	}
	switch v.Kind() {
	case reflect.Invalid:
		w("nil;")
	case reflect.Bool:
		w(strconv.FormatBool(v.Bool()) + ";")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w(strconv.FormatInt(v.Int(), 10) + ";")
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w(strconv.FormatUint(v.Uint(), 10) + ";")
	case reflect.Float32, reflect.Float64:
		w(strconv.FormatUint(math.Float64bits(v.Float()), 16) + ";")
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		w(strconv.FormatUint(math.Float64bits(real(c)), 16) + "," + strconv.FormatUint(math.Float64bits(imag(c)), 16) + ";")
	case reflect.String:
		w(strconv.Quote(v.String()) + ";")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			w("nil;")
			return
		}
		w(v.Elem().Type().String() + "&")
		writeValue(h, v.Elem(), depth+1)
	case reflect.Slice, reflect.Array:
		w("[" + strconv.Itoa(v.Len()) + ":")
		for i := 0; i < v.Len(); i++ {
			writeValue(h, v.Index(i), depth+1)
		}
		w("]")
	case reflect.Struct:
		w("{")
		for i := 0; i < v.NumField(); i++ {
			w(v.Type().Field(i).Name + "=")
			writeValue(h, v.Field(i), depth+1)
		}
		w("}")
	case reflect.Map:
		type entry struct{ key, val string }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			kh, vh := sha256.New(), sha256.New()
			writeValue(kh, it.Key(), depth+1)
			writeValue(vh, it.Value(), depth+1)
			entries = append(entries, entry{string(kh.Sum(nil)), string(vh.Sum(nil))})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		w("map" + strconv.Itoa(len(entries)) + ":")
		for _, e := range entries {
			w(e.key + e.val)
		}
	default: // func, chan, unsafe pointer: identity only, never data
		w(v.Type().String() + ";")
	}
}

// record is what the benchmark stores per (workload, seed): a digest
// per cell, per rendered scenario and of the telemetry exports, plus the
// exact work counts beside them.
type record struct {
	Cells   map[string]string `json:"cells"`
	Renders map[string]string `json:"renders"`
	Exports string            `json:"exports,omitempty"`
	Events  int64             `json:"events"`
	SimNs   int64             `json:"sim_ns"`
	Windows int64             `json:"windows"`
}

// recordOf summarises a pass whose cells all succeeded.
func recordOf(p *pass) record {
	r := record{Cells: map[string]string{}, Renders: map[string]string{}}
	for _, c := range p.cells {
		r.Cells[c.unit+"/"+c.name] = c.digest
		r.Events += c.out.Events
		r.SimNs += int64(c.out.SimTime)
		r.Windows += c.out.Windows
	}
	for s, d := range p.renders {
		r.Renders[s] = d
	}
	r.Exports = p.exports
	return r
}

// digestFile maps a seed (decimal) to its record.
type digestFile map[string]record

//go:embed digests
var storedFS embed.FS

// storedDigests returns the recorded digests for the workload, or an
// empty table when none were recorded.
func storedDigests(workload string) (digestFile, error) {
	b, err := storedFS.ReadFile("digests/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return digestFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("digests/%s.json: %w", workload, err)
	}
	return f, nil
}

// writeDigest stores rec for seed in dir/<workload>.json, keeping the
// other seeds' records.
func writeDigest(dir, workload string, seed uint64, rec record) error {
	path := filepath.Join(dir, workload+".json")
	f := digestFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f[strconv.FormatUint(seed, 10)] = rec
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkPasses marks failed cells and returns the run-level problems.
// Every pass must agree with the first cell by cell, render by render
// and export by export (the run is deterministic), and the first must
// agree with want when a record exists for this seed. Cells whose
// digest differs get an error; differences in the work counts are
// reported as problems so they show beside the failure.
func checkPasses(passes []*pass, want *record) []string {
	var problems []string
	ref := passes[0]
	for _, p := range passes[1:] {
		for i := range p.cells {
			c, r := &p.cells[i], ref.cells[i]
			if c.err == nil && r.err == nil && c.digest != r.digest {
				c.err = fmt.Errorf("digest %s differs from the run's first pass (%s)", c.digest, r.digest)
			}
		}
		for s, d := range p.renders {
			if other, ok := ref.renders[s]; ok && other != d {
				problems = append(problems, fmt.Sprintf("%s: rendered tables differ between passes", s))
			}
		}
		if p.exports != ref.exports {
			problems = append(problems, "telemetry exports differ between passes")
		}
	}
	for _, p := range passes {
		for s, err := range p.renderErr {
			problems = append(problems, fmt.Sprintf("%s: %v", s, err))
		}
	}
	if want == nil {
		return problems
	}
	for _, p := range passes {
		for i := range p.cells {
			c := &p.cells[i]
			key := c.unit + "/" + c.name
			exp, ok := want.Cells[key]
			switch {
			case c.err != nil:
			case !ok:
				c.err = fmt.Errorf("no recorded digest for this cell")
			case exp != c.digest:
				c.err = fmt.Errorf("digest %s, recorded %s", c.digest, exp)
			}
		}
	}
	got := recordOf(ref)
	if len(got.Cells) != len(want.Cells) {
		problems = append(problems, fmt.Sprintf("%d cells ran, %d recorded", len(got.Cells), len(want.Cells)))
	}
	units := make([]string, 0, len(got.Renders))
	for u := range got.Renders {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		if d := got.Renders[u]; want.Renders[u] != d {
			problems = append(problems, fmt.Sprintf("%s: rendered tables digest %s, recorded %s", u, d, want.Renders[u]))
		}
	}
	if got.Exports != want.Exports {
		problems = append(problems, fmt.Sprintf("telemetry exports digest %s, recorded %s", got.Exports, want.Exports))
	}
	if got.Events != want.Events {
		problems = append(problems, fmt.Sprintf("sim.events %d, recorded %d", got.Events, want.Events))
	}
	if got.SimNs != want.SimNs {
		problems = append(problems, fmt.Sprintf("sim.sim_s %d ns, recorded %d ns", got.SimNs, want.SimNs))
	}
	if got.Windows != want.Windows {
		problems = append(problems, fmt.Sprintf("pdes.windows %d, recorded %d", got.Windows, want.Windows))
	}
	return problems
}
