package campaign

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// FuzzParseCampaign feeds the campaign spec parser arbitrary file contents.
// The parser must never panic, must be deterministic, and any spec it
// accepts must satisfy the structural contract the coordinator depends on:
// a positive bounded run count, a consistent sharding, a canonical text
// that re-parses to the same identity, and cells that compile into
// cacheable run configurations.
func FuzzParseCampaign(f *testing.F) {
	seeds := []string{
		gridSpecText,
		mcSpecText,
		tinySpecText,
		"[campaign]\nname = defaults\n",
		// Hostile shapes the parser must reject without panicking.
		"[campaign]\nmode = mc\ndraws = 1\n[mc]\nrate_mbps = NaN..10\nrtt_ms = 20\nqueue_mult = 2",
		"[campaign]\nmode = mc\ndraws = 1\n[mc]\nrate_mbps = 10..1e308:1\nrtt_ms = 20\nqueue_mult = 2",
		"[campaign]\nmode = mc\ndraws = 1\n[mc]\nrate_mbps = 10:-1\nrtt_ms = 20\nqueue_mult = 2",
		"[campaign]\nseed = 99999999999999999999999999",
		"[campaign]\nshards = 99999\n",
		"[grid]\ncapacities = " + strings.Repeat("1mbit,", 100),
		"[grid]\nqueue_mults = 1e309",
		"= value without key",
		"[campaign\nname = x",
		"\x00\x01\x02[campaign]",
		"[campaign]\n" + strings.Repeat("#pad\n", 50),
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			if sp != nil {
				t.Fatalf("ParseSpec returned both a spec and an error: %v", err)
			}
			return
		}
		// Determinism: same bytes, same spec.
		sp2, err2 := ParseSpec(strings.NewReader(text))
		if err2 != nil || !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("re-parse diverged: %v", err2)
		}
		// Structural contract of an accepted spec.
		total := sp.Total()
		if total < 1 || total > maxCells {
			t.Fatalf("accepted spec with %d runs", total)
		}
		n := sp.ShardCount()
		if n < 1 || n > maxShards || n > total {
			t.Fatalf("accepted spec with %d shards over %d runs", n, total)
		}
		start, end := sp.ShardRange(n - 1)
		if start < 0 || end != total {
			t.Fatalf("last shard [%d,%d) does not end at %d", start, end, total)
		}
		// Canonical text is a parseable fixed point with a stable identity.
		canon := sp.Canonical()
		back, err := ParseSpec(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical text rejected: %v\n%s", err, canon)
		}
		if back.Canonical() != canon || back.ID() != sp.ID() {
			t.Fatalf("canonical text not a fixed point:\n%s", canon)
		}
		// Cells compile into finite, cacheable run configurations. Expansion
		// is bounded to keep the fuzz iteration cheap; cell 0 and the last
		// cell cover both ends of the index space.
		if total <= 4096 {
			cells := sp.Cells()
			if len(cells) != total {
				t.Fatalf("expanded %d cells, want %d", len(cells), total)
			}
			for _, c := range []Cell{cells[0], cells[len(cells)-1]} {
				cfg := c.RunConfig(sp)
				if cfg.Capacity <= 0 || math.IsNaN(cfg.QueueMult) || cfg.QueueMult <= 0 {
					t.Fatalf("cell %d compiles to bad condition %+v", c.Index, cfg.Condition)
				}
				if cfg.BaseRTT < 0 {
					t.Fatalf("cell %d negative RTT %v", c.Index, cfg.BaseRTT)
				}
				if _, ok := experiment.CacheKey(cfg); !ok {
					t.Fatalf("cell %d not cacheable", c.Index)
				}
			}
		}
	})
}

// FuzzReadManifest writes arbitrary bytes as a campaign directory's
// manifest. Every worker re-reads the manifest from the shared directory,
// so ReadManifest must return a clean error or a manifest, never panic, and
// a manifest it accepts must be self-consistent: its spec's ID is the
// manifest's ID, its shape is the spec's, and the worker's scan over it
// stays in bounds.
func FuzzReadManifest(f *testing.F) {
	manifest := func(text string) []byte {
		sp, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.MarshalIndent(NewManifest(sp), "", " ")
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	tiny := manifest(tinySpecText)
	f.Add(tiny)
	f.Add(manifest(gridSpecText))
	f.Add(manifest(mcSpecText))
	for _, s := range []string{
		// Valid JSON whose cross-checks must fail.
		strings.Replace(string(tiny), ManifestSchema, "gs-campaign-v0", 1),
		strings.Replace(string(tiny), `"total": 4`, `"total": 5`, 1),
		strings.Replace(string(tiny), `"shards": 2`, `"shards": 0`, 1),
		strings.Replace(string(tiny), "seed = 7", "seed = 8", 1),
		`{"schema":"gs-campaign-v1","spec":"[campaign]\nshards = 99999\n"}`,
		`{"schema":"gs-campaign-v1","spec":"[grid]\nqueue_mults = 1e309"}`,
		`{"schema":"gs-campaign-v1","spec":5}`,
		`null`, `[]`, `{}`, `{`, ``, "\xff\xfe\x00",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, sp, err := ReadManifest(dir)
		if err != nil {
			if m != nil || sp != nil {
				t.Fatalf("ReadManifest returned both a value and an error: %v", err)
			}
			return
		}
		if sp.ID() != m.ID {
			t.Fatalf("manifest id %s, spec id %s", m.ID, sp.ID())
		}
		if m.Total != sp.Total() || m.Shards != sp.ShardCount() || m.ShardSize != sp.ShardSize() {
			t.Fatalf("manifest shape %d/%d/%d, spec %d/%d/%d",
				m.Total, m.Shards, m.ShardSize, sp.Total(), sp.ShardCount(), sp.ShardSize())
		}
		if m.Shards < 1 || m.Shards > maxShards {
			t.Fatalf("accepted manifest with %d shards", m.Shards)
		}
		if done, n := Status(dir, m); len(done) != m.Shards || n != 0 {
			t.Fatalf("Status over an empty directory: %d slots, %d done", len(done), n)
		}
		// Re-initialising over the accepted manifest adopts the same
		// campaign.
		m2, sp2, err := Init(dir, sp, true)
		if err != nil || m2.ID != m.ID || sp2.ID() != sp.ID() {
			t.Fatalf("resume over an accepted manifest: %v", err)
		}
	})
}
