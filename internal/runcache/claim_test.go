package runcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClaimAcquireExclusive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.claim")

	c1, ok, err := AcquireClaim(path, "w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("first acquire: ok=%v err=%v", ok, err)
	}
	if c1.Owner() != "w1" {
		t.Fatalf("owner = %q", c1.Owner())
	}

	// A second worker must be refused while the lease is live.
	if _, ok, err := AcquireClaim(path, "w2", time.Minute); err != nil || ok {
		t.Fatalf("second acquire: ok=%v err=%v; want refused", ok, err)
	}

	info, found, err := ReadClaim(path)
	if err != nil || !found {
		t.Fatalf("ReadClaim: found=%v err=%v", found, err)
	}
	if info.Owner != "w1" || info.PID != os.Getpid() {
		t.Fatalf("claim info = %+v", info)
	}
	if info.Expired(time.Now()) {
		t.Fatal("fresh claim reads as expired")
	}

	if err := c1.Release(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := ReadClaim(path); found {
		t.Fatal("claim file survived Release")
	}
	// Released claims are re-acquirable.
	if _, ok, err := AcquireClaim(path, "w2", time.Minute); err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}
}

func TestClaimStealAfterExpiry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0001.claim")

	// A dead worker: claim acquired with an already-past lease.
	if _, ok, err := AcquireClaim(path, "dead", -time.Second); err != nil || !ok {
		t.Fatalf("seed acquire: ok=%v err=%v", ok, err)
	}

	c2, ok, err := AcquireClaim(path, "alive", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal: ok=%v err=%v; want stolen", ok, err)
	}
	info, _, _ := ReadClaim(path)
	if info.Owner != "alive" {
		t.Fatalf("post-steal owner = %q", info.Owner)
	}

	// Renew pushes the deadline out; the claim stays unstealable.
	if err := c2.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := AcquireClaim(path, "vulture", time.Minute); ok {
		t.Fatal("renewed claim was stolen")
	}
}

func TestClaimStealRaceHasOneWinner(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0002.claim")
	if _, ok, err := AcquireClaim(path, "dead", -time.Second); err != nil || !ok {
		t.Fatalf("seed acquire: ok=%v err=%v", ok, err)
	}

	// Many workers race to steal the expired claim. At least one must win,
	// and the file must end owned by a winner (atomic rename: no torn or
	// mixed contents).
	const racers = 16
	winners := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		owner := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := AcquireClaim(path, owner, time.Minute); err == nil && ok {
				mu.Lock()
				winners[owner] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(winners) == 0 {
		t.Fatal("no racer stole the expired claim")
	}
	info, found, err := ReadClaim(path)
	if err != nil || !found {
		t.Fatalf("post-race ReadClaim: found=%v err=%v", found, err)
	}
	if !winners[info.Owner] {
		t.Fatalf("file owned by %q, which did not report winning", info.Owner)
	}
}

// TestClaimHammerNeverTorn runs acquirers and readers against one claim
// path at once. A claim must only ever be seen absent or complete: an
// acquirer that creates the file and writes its JSON afterwards lets a
// reader in between see an empty file. The lease must also stay exclusive
// (no lease here expires, and a claim released between an acquirer's
// failed create and its read is created again, not stolen), and no temp
// file may be left behind.
func TestClaimHammerNeverTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0004.claim")
	const (
		acquirers = 4
		readers   = 4
		rounds    = 300
	)
	var holders atomic.Int32
	var acquired atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, acquirers+readers)
	stop := make(chan struct{})
	for i := 0; i < acquirers; i++ {
		owner := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c, ok, err := AcquireClaim(path, owner, time.Minute)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					continue
				}
				acquired.Add(1)
				if n := holders.Add(1); n != 1 {
					errs <- fmt.Errorf("%d holders of one live claim", n)
					return
				}
				if info, found, err := ReadClaim(path); err != nil || !found || info.Owner != owner {
					errs <- fmt.Errorf("holder %s read back %+v found=%v err=%v", owner, info, found, err)
					return
				}
				holders.Add(-1)
				if err := c.Release(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var rwg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := ReadClaim(path); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if acquired.Load() == 0 {
		t.Fatal("no acquirer ever won the claim")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(left) != 0 {
		t.Fatalf("temp files left behind: %v (err %v)", left, err)
	}
}

func TestClaimTornFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0003.claim")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadClaim(path); err == nil {
		t.Fatal("torn claim file read without error")
	}
	// Acquire must surface the error, not silently steal.
	if _, ok, err := AcquireClaim(path, "w", time.Minute); err == nil || ok {
		t.Fatalf("acquire over torn claim: ok=%v err=%v; want error", ok, err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Stored: 3, Bypassed: 4, Errors: 5, BytesRead: 6, BytesWritten: 7}
	b := Stats{Hits: 10, Misses: 20, Stored: 30, Bypassed: 40, Errors: 50, BytesRead: 60, BytesWritten: 70}
	got := a.Add(b)
	want := Stats{Hits: 11, Misses: 22, Stored: 33, Bypassed: 44, Errors: 55, BytesRead: 66, BytesWritten: 77}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	// Add and Sub are inverses.
	if got.Sub(b) != a {
		t.Fatal("Add then Sub did not round-trip")
	}
}

func TestStatsMarshalJSON(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Stored: 1, Bypassed: 2}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["lookups"] != float64(4) || m["hit_rate_pct"] != float64(75) {
		t.Fatalf("derived fields = %v / %v", m["lookups"], m["hit_rate_pct"])
	}
	// The derived keys decode back into a plain Stats without error.
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip: %+v != %+v", back, s)
	}
}

// TestClaimPathErrors drives the filesystem-error returns: acquiring in a
// directory that does not exist fails outright (not "held"), and renewing
// a claim whose directory vanished surfaces the write error.
func TestClaimPathErrors(t *testing.T) {
	dir := t.TempDir()
	gone := filepath.Join(dir, "nonexistent", "shard-0000.claim")
	if _, ok, err := AcquireClaim(gone, "w1", time.Minute); err == nil || ok {
		t.Fatalf("acquire in missing dir: ok=%v err=%v; want error", ok, err)
	}

	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	c, ok, err := AcquireClaim(filepath.Join(sub, "shard-0001.claim"), "w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if err := os.RemoveAll(sub); err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(time.Minute); err == nil {
		t.Fatal("renew with the claim directory gone succeeded")
	}
	// Release of an already-gone claim is a no-op, not an error.
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestClaimInfoRoundTrip(t *testing.T) {
	info := ClaimInfo{Owner: "w9", PID: 1234, Expires: time.Now().Add(time.Hour).UnixNano()}
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var back ClaimInfo
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != info {
		t.Fatalf("round trip: %+v != %+v", back, info)
	}
}

// FuzzReadClaim writes arbitrary bytes where a claim file lives. Claim
// files come from other processes sharing the directory, so the readers a
// worker's scan hits must fail closed: ReadClaim returns a clean error or
// a claim, never panics, and AcquireClaim over a file ReadClaim rejects
// errors without touching it. A claim that reads back survives a rewrite
// unchanged, and AcquireClaim takes it exactly when its lease has expired.
func FuzzReadClaim(f *testing.F) {
	live := time.Now().Add(24 * time.Hour).UnixNano()
	for _, s := range []string{
		fmt.Sprintf(`{"owner":"w1","pid":42,"expires_unix_ns":%d}`, live),
		`{"owner":"dead","pid":7,"expires_unix_ns":1}`,
		`{"owner":"w2","pid":-1,"expires_unix_ns":-9223372036854775808}`,
		`{"owner":"w3","expires_unix_ns":9223372036854775807}`,
		`{"owner":"w4","expires_unix_ns":1e400}`,
		`{"owner":5}`,
		`{"owner":"\u0000\ud800","extra":[1,2,3]}`,
		`{"owner":"w1","pid":4`,
		`null`, `[]`, `""`, `{}`, ``, " \n", "\xff\xfe\x00",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "shard-0000.claim")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, ok, err := ReadClaim(path)
		if err != nil {
			if ok || info != (ClaimInfo{}) {
				t.Fatalf("error %v returned with ok=%v info=%+v", err, ok, info)
			}
			if _, ok, err := AcquireClaim(path, "fuzz", time.Minute); err == nil || ok {
				t.Fatalf("AcquireClaim over an unreadable claim: ok=%v err=%v", ok, err)
			}
			if got, _ := os.ReadFile(path); string(got) != string(data) {
				t.Fatal("AcquireClaim rewrote an unreadable claim")
			}
			return
		}
		if !ok {
			t.Fatal("existing claim file reported absent")
		}
		if err := writeClaimTo(path, info); err != nil {
			t.Fatal(err)
		}
		back, ok, err := ReadClaim(path)
		if err != nil || !ok || back != info {
			t.Fatalf("claim round trip: %+v -> %+v ok=%v err=%v", info, back, ok, err)
		}
		expired := info.Expired(time.Now())
		c, ok, err := AcquireClaim(path, "fuzz", time.Minute)
		if err != nil {
			t.Fatalf("AcquireClaim over a readable claim: %v", err)
		}
		if ok != expired {
			t.Fatalf("AcquireClaim ok=%v over a claim with expired=%v (%+v)", ok, expired, info)
		}
		if ok && c.Owner() != "fuzz" {
			t.Fatalf("stolen claim owned by %q", c.Owner())
		}
	})
}
