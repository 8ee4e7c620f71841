// Package store is a disk-backed content-addressed result store: one file
// per canonical-spec hash, each self-checksummed, the whole directory
// LRU-bounded by bytes. It is the persistence layer under the simulation
// service's in-memory result cache — results survive daemon restarts. Every
// Get re-reads and re-verifies the file, so a hit never depends on the
// in-memory index alone.
//
// Entry format: the 64-hex-character SHA-256 of the payload, a newline,
// then the payload. Writes go to a dot-prefixed temp file in the same
// directory, are synced, then renamed into place — a crash mid-write leaves
// a temp file (swept at the next Open) or a torn entry (caught by the
// checksum at Open or Get, evicted, never served), but never a readable
// half-result under a valid key.
//
// Beside the entries sits a one-line stamp file naming the Epoch they were
// written under. Nothing in a key or an entry says which rules derived the
// key, so a directory from another epoch (or from before there were epochs)
// is emptied at Open rather than trusted.
//
// A directory that does not exist yet costs nothing at Open: it is created
// and stamped with its first entry, by the first Put, so no entry is ever
// written without its stamp. A Put that fails there (the directory cannot be
// made) is a failed write like any other, and the next Put tries again.
//
// The store knows nothing about what the payloads mean: it moves bytes. The
// service layer owns (de)serialization of noc.Result and the metric names;
// the store exports plain counters (Evictions, Corrupt) for it to re-expose.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// headerLen is the checksum line: 64 hex characters plus the newline.
const headerLen = 65

// Epoch names the rules that derive a key from a spec. Bump it whenever a
// key may come to stand for a different result than it stood for before
// (PR 20 gave non-square mecs/fbfly grids their own keys; before it they
// shared the square grid's): Open then evicts what the old rules stored.
const Epoch = "1"

// epochFile holds Epoch and a newline. The name is no valid key and has no
// leading dot, so the scan leaves it alone.
const epochFile = "EPOCH"

// Store is a disk-backed key→payload store. Keys are 64-character lowercase
// hex strings (the service's canonical spec hashes). Safe for concurrent
// use by multiple goroutines of one process.
type Store struct {
	dir      string
	maxBytes int64

	mu sync.Mutex
	// unmade is set while dir does not exist: the next Put creates and
	// stamps it before writing its entry.
	unmade  bool
	entries map[string]*list.Element // each holds its *entry in lru
	// lru orders resident entries, least recently used first, so a hit's
	// move to the back and an eviction from the front are O(1) under mu.
	lru list.List

	// count and bytes mirror len(entries) and the entries' total size, so the
	// gauges that read them never wait for mu — which Get holds across a file
	// read, and a hung disk holds for good.
	count atomic.Int64
	bytes atomic.Int64

	evictions atomic.Uint64
	corrupt   atomic.Uint64
}

type entry struct {
	key  string
	size int64 // file size on disk, header included
}

// Open opens the store at dir with the given byte cap. A dir that does not
// exist yet is left so, and the store starts empty: the first Put creates and
// stamps it. Open writes nothing for it, but refuses a dir that could not be
// created (a path component is a regular file or, on unix, the nearest
// existing ancestor is not writable by this process).
//
// An existing directory whose stamp is absent or names another Epoch loses
// every entry first (counted as evictions) and is stamped anew. Then the
// index is rebuilt from a directory scan: leftover temp files are
// removed, every entry is checksum-verified (corrupt and truncated entries
// are evicted on the spot), survivors are ordered least-recently-used first
// by file modification time, and the byte cap is enforced before Open
// returns. maxBytes must be positive.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("store: byte cap %d must be positive", maxBytes)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: map[string]*list.Element{}}
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		if err := creatable(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.unmade = true
		return s, nil
	} else if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.checkEpoch(); err != nil {
		return nil, err
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictOverCapLocked(0)
	s.mu.Unlock()
	return s, nil
}

// creatable reports why the missing directory dir could not be created, or
// nil: it walks up to the nearest ancestor that exists, which must be a
// directory this process may create entries in. It writes nothing.
func creatable(dir string) error {
	for p := filepath.Dir(dir); ; p = filepath.Dir(p) {
		fi, err := os.Stat(p)
		switch {
		case errors.Is(err, fs.ErrNotExist) && p != filepath.Dir(p):
			continue
		case err != nil:
			return err
		case !fi.IsDir(): // Windows reports a path below a file as missing
			return &fs.PathError{Op: "mkdir", Path: p, Err: syscall.ENOTDIR}
		}
		if err := writable(p); err != nil {
			return &fs.PathError{Op: "mkdir", Path: dir, Err: err}
		}
		return nil
	}
}

// makeLocked creates the directory Open found missing and stamps it.
// checkEpoch does the stamping, so a directory another process made in the
// meantime keeps its entries only under this Epoch's stamp.
func (s *Store) makeLocked() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.checkEpoch(); err != nil {
		return err
	}
	s.unmade = false
	return nil
}

// checkEpoch leaves a directory stamped with Epoch alone; any other is
// emptied of entries and then stamped, in that order, so a crash in between
// repeats the work instead of blessing what is left.
func (s *Store) checkEpoch() error {
	stamp := filepath.Join(s.dir, epochFile)
	if got, err := os.ReadFile(stamp); err == nil && strings.TrimSpace(string(got)) == Epoch {
		return nil
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		if !de.Type().IsRegular() || !validKey(de.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, de.Name())); err != nil {
			return fmt.Errorf("store: evicting an entry of another epoch: %w", err)
		}
		s.evictions.Add(1)
	}
	if err := os.WriteFile(stamp, []byte(Epoch+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// scan rebuilds the index from the directory, removing temp-file leftovers
// and corrupt entries.
func (s *Store) scan() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type survivor struct {
		e     *entry
		mtime time.Time
	}
	var alive []survivor
	for _, de := range des {
		name := de.Name()
		if !de.Type().IsRegular() {
			continue
		}
		if name[0] == '.' {
			// Crash leftover from an interrupted atomic write.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !validKey(name) {
			continue // foreign file; not ours to manage
		}
		path := filepath.Join(s.dir, name)
		if _, err := loadVerified(path); err != nil {
			s.corrupt.Add(1)
			os.Remove(path)
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		alive = append(alive, survivor{&entry{key: name, size: fi.Size()}, fi.ModTime()})
	}
	sort.Slice(alive, func(i, j int) bool {
		if !alive[i].mtime.Equal(alive[j].mtime) {
			return alive[i].mtime.Before(alive[j].mtime)
		}
		return alive[i].e.key < alive[j].e.key // stable order for equal stamps
	})
	for _, sv := range alive {
		s.addLocked(sv.e)
	}
	return nil
}

// Get returns the payload stored under key. The entry is read from disk and
// checksum-verified on every call; a corrupt entry is evicted, counted, and
// reported as a miss — never served.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	path := filepath.Join(s.dir, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, err := loadVerified(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.dropLocked(key) // vanished externally; forget it
			return nil, false
		}
		s.corrupt.Add(1)
		os.Remove(path)
		s.dropLocked(key)
		return nil, false
	}
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToBack(el)
	} else {
		// Written by another process sharing the directory; adopt it.
		s.addLocked(&entry{key: key, size: int64(len(payload)) + headerLen})
		s.evictOverCapLocked(0)
	}
	// Refresh the on-disk recency mark so LRU order survives a restart.
	now := time.Now()
	os.Chtimes(path, now, now)
	return payload, true
}

// Put stores payload under key, atomically (write temp, sync, rename) and
// within the byte cap: least-recently-used entries are evicted first, and a
// payload larger than the whole cap is not stored at all (counted as an
// eviction rather than silently wedging the store).
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	size := int64(len(payload)) + headerLen
	if size > s.maxBytes {
		s.evictions.Add(1)
		return nil
	}
	sum := sha256.Sum256(payload)
	data := make([]byte, 0, size)
	data = append(data, hex.EncodeToString(sum[:])...)
	data = append(data, '\n')
	data = append(data, payload...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unmade {
		if err := s.makeLocked(); err != nil {
			return err
		}
	}
	s.evictOverCapLocked(size)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		s.bytes.Add(size - e.size)
		e.size = size
		s.lru.MoveToBack(el)
	} else {
		s.addLocked(&entry{key: key, size: size})
	}
	return nil
}

// evictOverCapLocked removes least-recently-used entries until `need` more
// bytes fit under the cap.
func (s *Store) evictOverCapLocked(need int64) {
	for s.lru.Len() > 0 && s.bytes.Load()+need > s.maxBytes {
		e := s.lru.Front().Value.(*entry)
		os.Remove(filepath.Join(s.dir, e.key))
		s.dropLocked(e.key)
		s.evictions.Add(1)
	}
}

// addLocked indexes e as the most recently used entry.
func (s *Store) addLocked(e *entry) {
	s.entries[e.key] = s.lru.PushBack(e)
	s.count.Add(1)
	s.bytes.Add(e.size)
}

// dropLocked removes key from the index without touching the disk.
func (s *Store) dropLocked(key string) {
	el, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	e := s.lru.Remove(el).(*entry)
	s.count.Add(-1)
	s.bytes.Add(-e.size)
}

// Len returns the number of resident entries.
func (s *Store) Len() int { return int(s.count.Load()) }

// Bytes returns the resident size in bytes, headers included.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// Evictions returns the number of entries evicted by the byte cap (plus
// oversize payloads rejected at Put and entries of another epoch removed at
// Open).
func (s *Store) Evictions() uint64 { return s.evictions.Load() }

// Corrupt returns the number of corrupt or truncated entries detected (at
// Open or Get) and evicted — torn writes from a crash, external tampering.
func (s *Store) Corrupt() uint64 { return s.corrupt.Load() }

// loadVerified reads an entry file and verifies its checksum, returning the
// payload. Any structural problem — too short, bad header, digest mismatch —
// is an error distinct from fs.ErrNotExist.
func loadVerified(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen || data[headerLen-1] != '\n' {
		return nil, fmt.Errorf("store: %s: truncated entry", path)
	}
	payload := data[headerLen:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(data[:headerLen-1]) {
		return nil, fmt.Errorf("store: %s: checksum mismatch", path)
	}
	return payload, nil
}

// validKey reports whether key is a 64-character lowercase-hex name — the
// only filenames the store creates or manages.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
