package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, dir string, cap int64) *Store {
	t.Helper()
	s, err := Open(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	payload := []byte(`{"avgLatency": 12.5}`)
	if err := s.Put(testKey(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(testKey(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get(testKey(2)); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if want := int64(len(payload)) + headerLen; s.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), want)
	}
}

func TestRejectsInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	// A file that is not an entry is never read, evicted or removed.
	notes := filepath.Join(dir, "notes")
	if err := os.WriteFile(notes, []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("notes"); ok || s.Corrupt() != 0 {
		t.Errorf("Get of a foreign file: hit %v, Corrupt %d", ok, s.Corrupt())
	}
	if _, err := os.Stat(notes); err != nil {
		t.Errorf("foreign file removed: %v", err)
	}
	for _, key := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64), "../../etc/passwd"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) reported a hit for an invalid key", key)
		}
	}
}

// TestReopenServesIntactEntries: the index is rebuilt from the directory
// scan, and every intact entry still hits after a restart.
func TestReopenServesIntactEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	payloads := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := testKey(i)
		payloads[k] = []byte(fmt.Sprintf(`{"point": %d}`, i))
		if err := s.Put(k, payloads[k]); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, 1<<20)
	if s2.Len() != 8 {
		t.Fatalf("reopened Len = %d, want 8", s2.Len())
	}
	for k, want := range payloads {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("after reopen Get(%s) = %q, %v; want %q, true", k[:8], got, ok, want)
		}
	}
}

// TestCrashMidWrite simulates a daemon killed mid-write: one entry torn
// (truncated in place), one entry's bytes flipped, a temp file left behind.
// Reopening must evict the damaged entries and the temp leftover while every
// intact entry still hits.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	for i := 0; i < 6; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf(`{"point": %d}`, i))); err != nil {
			t.Fatal(err)
		}
	}

	// Tear entry 0: keep the header but truncate the payload mid-byte.
	torn := filepath.Join(dir, testKey(0))
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt entry 1: flip a payload byte, length unchanged.
	flipped := filepath.Join(dir, testKey(1))
	data, err = os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncate entry 2 inside the header (shorter than any valid entry).
	if err := os.WriteFile(filepath.Join(dir, testKey(2)), []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And the interrupted atomic write's temp file.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 1<<20)
	if got := s2.Corrupt(); got != 3 {
		t.Fatalf("Corrupt = %d, want 3", got)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len = %d, want 3 survivors", s2.Len())
	}
	for i := 0; i < 3; i++ {
		if _, ok := s2.Get(testKey(i)); ok {
			t.Fatalf("damaged entry %d served after reopen", i)
		}
	}
	for i := 3; i < 6; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || string(got) != fmt.Sprintf(`{"point": %d}`, i) {
			t.Fatalf("intact entry %d lost: %q, %v", i, got, ok)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-12345")); !os.IsNotExist(err) {
		t.Fatal("temp leftover survived the reopen scan")
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn entry file survived the reopen scan")
	}
}

// TestGetDetectsCorruption: an entry damaged while the store is open is
// caught by the per-Get verification, evicted and never served.
func TestGetDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	if err := s.Put(testKey(0), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testKey(0))
	data, _ := os.ReadFile(path)
	data[headerLen] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("corrupt entry served")
	}
	if s.Corrupt() != 1 {
		t.Fatalf("Corrupt = %d, want 1", s.Corrupt())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("index retained the corrupt entry: len %d bytes %d", s.Len(), s.Bytes())
	}
}

// TestLRUByteCap: eviction respects the byte cap, removes least-recently-
// used entries first, and a Get refreshes recency.
func TestLRUByteCap(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(len(payload)) + headerLen // 165
	s := mustOpen(t, dir, 4*entrySize)

	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 || s.Bytes() != 4*entrySize {
		t.Fatalf("resident %d entries / %d bytes, want 4 / %d", s.Len(), s.Bytes(), 4*entrySize)
	}

	// Touch the oldest so it survives the next eviction.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if err := s.Put(testKey(4), payload); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() > 4*entrySize {
		t.Fatalf("Bytes %d exceeds cap %d", s.Bytes(), 4*entrySize)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("recently-touched entry 0 was evicted")
	}
	if s.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions())
	}

	// An oversize payload is rejected outright, never stored.
	big := bytes.Repeat([]byte("y"), int(4*entrySize))
	if err := s.Put(testKey(9), big); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(9)); ok {
		t.Fatal("oversize payload was stored")
	}

	// The cap holds under concurrent Put: eight writers push 25 distinct keys
	// each through a store that fits six, and afterwards the counters agree
	// with the directory and every survivor is served its own payload.
	t.Run("concurrent", func(t *testing.T) {
		const writers, each, fit = 8, 25, 6
		dir := t.TempDir()
		s := mustOpen(t, dir, fit*entrySize)
		body := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 100-i%7) }
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * each; i < (w+1)*each; i++ {
					if err := s.Put(testKey(i), body(i)); err != nil {
						t.Error(err)
					}
					if got := s.Bytes(); got > fit*entrySize {
						t.Errorf("Bytes %d exceeds cap %d mid-run", got, fit*entrySize)
					}
				}
			}(w)
		}
		wg.Wait()
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var onDisk int64
		entries := 0
		for _, f := range files {
			if f.Name() == epochFile {
				continue
			}
			info, err := f.Info()
			if err != nil || !validKey(f.Name()) {
				t.Fatalf("stray file %q in the store directory (%v)", f.Name(), err)
			}
			onDisk += info.Size()
			entries++
		}
		if s.Bytes() > fit*entrySize || s.Bytes() != onDisk || s.Len() != entries {
			t.Fatalf("Bytes %d / Len %d under cap %d, directory holds %d bytes in %d entries",
				s.Bytes(), s.Len(), fit*entrySize, onDisk, entries)
		}
		if got := s.Evictions(); got != uint64(writers*each-entries) {
			t.Errorf("Evictions = %d with %d of %d keys resident", got, entries, writers*each)
		}
		survivors := 0
		for i := 0; i < writers*each; i++ {
			if got, ok := s.Get(testKey(i)); ok {
				survivors++
				if !bytes.Equal(got, body(i)) {
					t.Errorf("key %d served another entry's payload", i)
				}
			}
		}
		if survivors != entries || entries == 0 {
			t.Errorf("%d keys answer, %d entries on disk", survivors, entries)
		}
	})
}

// TestLRUOrderSurvivesRestart: recency is carried across restarts through
// file mtimes, so a reopened store evicts the same entries a live one would.
func TestLRUOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(len(payload)) + headerLen
	s := mustOpen(t, dir, 10*entrySize)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
		// Pin well-separated mtimes so the reopen scan sees an unambiguous
		// recency order regardless of filesystem timestamp granularity.
		stamp := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, testKey(i)), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0 is oldest on disk; a reopened store capped to 3 entries must
	// drop exactly it.
	s2 := mustOpen(t, dir, 3*entrySize)
	if _, ok := s2.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived the reopen cap")
	}
	for i := 1; i < 4; i++ {
		if _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
}

// TestConcurrentAccess hammers one store from several goroutines; the race
// detector and the final invariants are the assertions. On a directory that
// does not exist yet the first Puts race to make it, and a watcher checks
// that no entry is ever on disk without the stamp.
func TestConcurrentAccess(t *testing.T) {
	for name, dir := range map[string]string{
		"existing": t.TempDir(),
		"missing":  filepath.Join(t.TempDir(), "a", "b"),
	} {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, dir, 1<<20)
			stop, watched := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(watched)
				for {
					select {
					case <-stop:
						return
					default:
					}
					des, _ := os.ReadDir(dir)
					for _, de := range des {
						if !validKey(de.Name()) {
							continue
						}
						// The stamp is never removed, so a stat after the
						// listing sees it if it preceded the entry.
						if _, err := os.Stat(filepath.Join(dir, epochFile)); err != nil {
							t.Errorf("entry %s on disk without the stamp: %v", de.Name()[:8], err)
							return
						}
					}
				}
			}()
			done := make(chan struct{})
			for g := 0; g < 4; g++ {
				go func(g int) {
					defer func() { done <- struct{}{} }()
					for i := 0; i < 50; i++ {
						k := testKey(g*50 + i)
						if err := s.Put(k, []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
							t.Error(err)
							return
						}
						if _, ok := s.Get(k); !ok {
							t.Errorf("just-written key %s missing", k[:8])
							return
						}
					}
				}(g)
			}
			for g := 0; g < 4; g++ {
				<-done
			}
			close(stop)
			<-watched
			if s.Len() != 200 {
				t.Fatalf("Len = %d, want 200", s.Len())
			}
			if s2 := mustOpen(t, dir, 1<<20); s2.Len() != 200 || s2.Evictions() != 0 {
				t.Fatalf("reopen: Len %d, Evictions %d; want 200 and 0", s2.Len(), s2.Evictions())
			}
		})
	}
}

// TestOpenRefuses: Open fails, and writes nothing, for a cap that is not
// positive and for a directory that could not be created.
func TestOpenRefuses(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	readOnly := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(readOnly, 0o555); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		dir  string
		cap  int64
		skip bool
	}{
		{"cap not positive", filepath.Join(t.TempDir(), "s"), 0, false},
		{"below a regular file", filepath.Join(file, "a", "s"), 1 << 20, false},
		{"a regular file", file, 1 << 20, false},
		// access(2) grants root write everywhere, and a platform without
		// uids (-1) leaves this case to the first Put.
		{"under a read-only parent", filepath.Join(readOnly, "a", "s"), 1 << 20, os.Geteuid() <= 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("euid", os.Geteuid())
			}
			before, _ := os.Stat(tc.dir)
			if s, err := Open(tc.dir, tc.cap); err == nil {
				t.Fatalf("Open(%s, %d) = %v, want an error", tc.dir, tc.cap, s)
			}
			if after, _ := os.Stat(tc.dir); (before == nil) != (after == nil) {
				t.Fatalf("Open changed %s: %v before, %v after", tc.dir, before, after)
			}
		})
	}
}

// TestEpochStamp: a directory is trusted only under the stamp of the epoch
// that wrote it. A fresh directory gets the stamp; a matching stamp keeps
// the entries; a missing or different one evicts every entry (counted) and
// re-stamps; files that are not entries are left alone either way. A
// directory that does not exist stays so through Open and a Get miss, and
// its first Put makes it holding the stamp and that one entry.
func TestEpochStamp(t *testing.T) {
	// A first Put that cannot stamp the directory it made writes no entry.
	made := filepath.Join(t.TempDir(), "new")
	s := mustOpen(t, made, 1<<20)
	if err := os.MkdirAll(filepath.Join(made, epochFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), []byte("payload")); err == nil {
		t.Error("Put into a directory it could not stamp: no error")
	}
	if _, err := os.Stat(filepath.Join(made, testKey(0))); !os.IsNotExist(err) {
		t.Errorf("an entry without its stamp (%v)", err)
	}

	fill := func(t *testing.T) string {
		dir := t.TempDir()
		s := mustOpen(t, dir, 1<<20)
		if got, err := os.ReadFile(filepath.Join(dir, epochFile)); err != nil || string(got) != Epoch+"\n" {
			t.Fatalf("fresh directory: stamp %q, %v; want %q", got, err, Epoch+"\n")
		}
		for i := 0; i < 3; i++ {
			if err := s.Put(testKey(i), []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not ours"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	stamp := func(dir string) string { return filepath.Join(dir, epochFile) }
	cases := []struct {
		name    string
		tamper  func(dir string) error
		entries int
	}{
		{"matching stamp keeps entries", func(string) error { return nil }, 3},
		{"missing stamp evicts", func(dir string) error { return os.Remove(stamp(dir)) }, 0},
		{"older stamp evicts", func(dir string) error { return os.WriteFile(stamp(dir), []byte("0\n"), 0o644) }, 0},
		{"torn stamp evicts", func(dir string) error { return os.WriteFile(stamp(dir), nil, 0o644) }, 0},
		{"missing directory made by the first put", os.RemoveAll, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := fill(t)
			if err := tc.tamper(dir); err != nil {
				t.Fatal(err)
			}
			_, err := os.Stat(dir)
			missing := os.IsNotExist(err)
			s := mustOpen(t, dir, 1<<20)
			if missing {
				if _, ok := s.Get(testKey(0)); ok || s.Len() != 0 || s.Evictions() != 0 {
					t.Fatalf("missing directory: hit %v, Len %d, Evictions %d", ok, s.Len(), s.Evictions())
				}
				if _, err := os.Stat(dir); !os.IsNotExist(err) {
					t.Fatalf("Open or a Get miss made the directory (%v)", err)
				}
			} else {
				if s.Len() != tc.entries || s.Evictions() != uint64(3-tc.entries) {
					t.Fatalf("Len %d, Evictions %d; want %d and %d", s.Len(), s.Evictions(), tc.entries, 3-tc.entries)
				}
				if _, ok := s.Get(testKey(0)); ok != (tc.entries > 0) {
					t.Fatalf("Get after reopen: hit %v, want %v", ok, tc.entries > 0)
				}
				if got, err := os.ReadFile(stamp(dir)); err != nil || string(got) != Epoch+"\n" {
					t.Fatalf("stamp after reopen %q, %v; want %q", got, err, Epoch+"\n")
				}
				if got, err := os.ReadFile(filepath.Join(dir, "README.txt")); err != nil || string(got) != "not ours" {
					t.Fatalf("foreign file touched: %q, %v", got, err)
				}
			}
			// Once re-stamped (or made) the directory is trusted again.
			if err := s.Put(testKey(9), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if missing {
				des, err := os.ReadDir(dir)
				var names []string
				for _, de := range des {
					names = append(names, de.Name())
				}
				slices.Sort(names)
				if err != nil || !slices.Equal(names, []string{testKey(9), epochFile}) {
					t.Fatalf("first Put left %v, %v; want its entry and the stamp", names, err)
				}
				if got, err := os.ReadFile(stamp(dir)); err != nil || string(got) != Epoch+"\n" {
					t.Fatalf("stamp after the first Put %q, %v; want %q", got, err, Epoch+"\n")
				}
			}
			if s2 := mustOpen(t, dir, 1<<20); s2.Len() != tc.entries+1 || s2.Evictions() != 0 {
				t.Fatalf("second reopen: Len %d, Evictions %d; want %d and 0", s2.Len(), s2.Evictions(), tc.entries+1)
			}
		})
	}
}

// TestSharedAndDamagedDirectories: two stores over one directory see each
// other's entries, a subdirectory among the entries is passed over, and a
// directory damaged under a store (a directory where the stamp or an entry
// belongs, or the whole directory gone) is refused as an error, never
// served from.
func TestSharedAndDamagedDirectories(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	a, b := mustOpen(t, dir, 1<<20), mustOpen(t, dir, 1<<20)
	small := mustOpen(t, dir, headerLen+6) // room for one "shared"
	if err := a.Put(testKey(0), []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get(testKey(0)); !ok || string(got) != "shared" || b.Len() != 1 {
		t.Fatalf("the other store's entry: %q, %v, Len %d", got, ok, b.Len())
	}
	// An entry another store removed is a miss, and leaves the index.
	if err := b.Put(testKey(4), []byte("gone soon")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, testKey(4))); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(testKey(4)); ok || b.Len() != 1 {
		t.Fatalf("a removed entry: hit %v, Len %d; want a miss and 1", ok, b.Len())
	}
	// Adopting what another store wrote keeps the adopter's byte cap.
	if err := a.Put(testKey(3), []byte("shared")); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 0} {
		if _, ok := small.Get(testKey(k)); !ok || small.Len() != 1 || small.Bytes() > headerLen+6 {
			t.Fatalf("adopting entry %d: %v, Len %d, Bytes %d", k, ok, small.Len(), small.Bytes())
		}
	}

	if err := os.Mkdir(filepath.Join(dir, testKey(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, testKey(1), "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(testKey(1), []byte("blocked")); err == nil {
		t.Error("Put over a directory holding the key's name: no error")
	}

	// A directory under an entry's name is not an entry: reopening leaves it.
	if err := os.Mkdir(filepath.Join(dir, testKey(7)), 0o755); err != nil {
		t.Fatal(err)
	}
	if r := mustOpen(t, dir, 1<<20); r.Corrupt() != 0 {
		t.Errorf("reopen counted %d corrupt entries", r.Corrupt())
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(7))); err != nil {
		t.Errorf("directory under an entry's name removed: %v", err)
	}

	stamped := t.TempDir()
	if err := os.Mkdir(filepath.Join(stamped, epochFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(stamped, 1<<20); err == nil {
		t.Errorf("Open with a directory for its stamp = %v, want an error", s)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(testKey(2), []byte("gone")); err == nil {
		t.Error("Put into a removed directory: no error")
	}
}
