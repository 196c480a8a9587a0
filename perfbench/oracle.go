package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"

	"repro/internal/experiment"
)

// defaultSeed is the seed whose digests are checked in as golden.json.
const defaultSeed = 1

// digest is what the oracle knows about one simulated run: its exact event
// count and a SHA-256 over its result series.
type digest struct {
	Events uint64 `json:"events"`
	SHA256 string `json:"sha256"`
}

// oracle checks every run a workload makes. For the default seed the
// expectations come from golden.json; for any other seed the first run of
// each cell records its digest (persisted under .bench_build, so later
// invocations in the same checkout re-check it) and every later run of that
// cell must match. A mismatch, a panic or a failed command counts the run
// as failed.
type oracle struct {
	expect    map[string]digest
	golden    bool
	record    bool   // default seed with PERFBENCH_RECORD_GOLDEN=1: write golden.json
	path      string // file the expectations are saved to ("" = read-only)
	workload  string
	tamper    bool
	dirty     bool
	attempted int
	failed    int
}

// goldenPath is the checked-in digest file for the default seed.
func goldenPath(root string) string { return filepath.Join(root, "perfbench", "golden.json") }

func loadOracle(root, storeDir, workload string, seed uint64, tamper bool) (*oracle, error) {
	o := &oracle{expect: map[string]digest{}, workload: workload, tamper: tamper}
	if seed == defaultSeed {
		if os.Getenv("PERFBENCH_RECORD_GOLDEN") == "1" {
			o.record, o.path = true, goldenPath(root)
			return o, nil
		}
		all, err := readGolden(goldenPath(root))
		if err != nil {
			return nil, err
		}
		o.golden = true
		if len(all[workload]) == 0 {
			return nil, fmt.Errorf("golden.json has no digests for %s", workload)
		}
		o.expect = all[workload]
		return o, nil
	}
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	o.path = filepath.Join(storeDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if data, err := os.ReadFile(o.path); err == nil {
		if err := json.Unmarshal(data, &o.expect); err != nil {
			return nil, fmt.Errorf("%s: %w", o.path, err)
		}
	}
	return o, nil
}

func readGolden(path string) (map[string]map[string]digest, error) {
	all := map[string]map[string]digest{}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}

// check counts one attempted run and reports whether its digest matches.
func (o *oracle) check(cell string, got digest) bool {
	o.attempted++
	return o.matches(cell, got)
}

// matches compares (or, without an expectation, records) one digest; a
// mismatch counts as a failure.
func (o *oracle) matches(cell string, got digest) bool {
	want, ok := o.expect[cell]
	if !ok {
		if o.golden {
			return o.reject(cell, "no golden digest")
		}
		o.expect[cell] = got
		o.dirty = true
		return true
	}
	if o.tamper {
		want.SHA256 = "tampered-" + want.SHA256
	}
	if want != got {
		return o.reject(cell, fmt.Sprintf("got events=%d sha256=%s, want events=%d sha256=%s",
			got.Events, got.SHA256, want.Events, want.SHA256))
	}
	return true
}

// fail counts n attempted runs that failed outright (a panic, a CLI exit).
func (o *oracle) fail(cell string, n int, why string) {
	o.attempted += n
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s (%d runs): %s\n", cell, n, why)
}

func (o *oracle) reject(cell, why string) bool {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s: %s\n", cell, why)
	return false
}

// save persists newly recorded expectations.
func (o *oracle) save() error {
	if !o.dirty || o.path == "" || o.tamper || o.failed > 0 {
		return nil
	}
	if o.record {
		all, err := readGolden(o.path)
		if err != nil {
			all = map[string]map[string]digest{}
		}
		all[o.workload] = o.expect
		return writeJSON(o.path, all)
	}
	return writeJSON(o.path, o.expect)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runDigest hashes the series a run contributes to the paper's tables:
// game and TCP bitrate, loss bins, ping RTTs and displayed FPS.
func runDigest(r *experiment.RunResult) digest {
	h := sha256.New()
	floats(h, "game_mbps", r.GameMbps)
	floats(h, "tcp_mbps", r.TCPMbps)
	floats(h, "game_loss", r.GameLossBins)
	floats(h, "tcp_loss", r.TCPLossBins)
	floats(h, "fps", r.FPSBins)
	var b [8]byte
	h.Write([]byte("rtt"))
	binary.LittleEndian.PutUint64(b[:], uint64(len(r.RTT)))
	h.Write(b[:])
	for _, s := range r.RTT {
		binary.LittleEndian.PutUint64(b[:], uint64(s.At))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(s.RTT))
		h.Write(b[:])
	}
	return digest{Events: r.Engine.EventsDispatched, SHA256: hex.EncodeToString(h.Sum(nil))}
}

func floats(h hash.Hash, tag string, xs []float64) {
	var b [8]byte
	h.Write([]byte(tag))
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// bytesDigest hashes an artefact that must be byte-stable (a runlog line,
// merged.det.json).
func bytesDigest(events uint64, data []byte) digest {
	sum := sha256.Sum256(data)
	return digest{Events: events, SHA256: hex.EncodeToString(sum[:])}
}
