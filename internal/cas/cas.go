// Package cas is a content-addressed result store: a durable map from a
// canonical hash of an experiment's inputs to the bytes the experiment
// produced. It exists because PRs 5–8 made every sweep cell a pure
// function of (workload, machine, strategy, fault spec, seed, code) —
// which makes caching trivially sound: if the key matches, the bytes
// are THE answer, not an approximation of it. The sweep engine keys
// each (cell, seed) run by HashFields over those inputs plus the module
// fingerprint, so a re-run of an unchanged grid executes zero cells and
// a code edit invalidates exactly everything.
//
// The store is deliberately boring: entries are files sharded by key
// prefix, writes go through a temp file and an atomic rename, reads
// verify a SHA-256 payload checksum (a corrupt entry deletes itself and
// reports a miss, never a wrong answer), and a size cap evicts in LRU
// order tracked by write/access sequence numbers — no wall clock
// anywhere, so the package stays inside the determinism lint boundary.
package cas

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Key is the content address: a SHA-256 over the canonically encoded
// key material (HashFields).
type Key [sha256.Size]byte

// String renders the key as lowercase hex — the on-disk file name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes a hex key string.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("cas: %q is not a %d-byte hex key", s, len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Field is one named component of a key. Both the name and the value
// participate in the hash, so reordering semantically different values
// ("seed"=1,"ranks"=4 vs "seed"=4,"ranks"=1) cannot collide.
type Field struct{ Name, Value string }

// F builds a Field.
func F(name, value string) Field { return Field{Name: name, Value: value} }

// HashFields derives the key for a field list. The encoding is
// canonical and prefix-free — every string is netstring-framed
// ("<len>:<bytes>,") — so distinct field lists can never encode to the
// same byte stream regardless of embedded separators. Field order is
// significant; callers fix it by construction.
func HashFields(fields ...Field) Key {
	h := sha256.New()
	for _, f := range fields {
		writeNetstring(h, f.Name)
		writeNetstring(h, f.Value)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func writeNetstring(w io.Writer, s string) {
	io.WriteString(w, strconv.Itoa(len(s)))
	io.WriteString(w, ":")
	io.WriteString(w, s)
	io.WriteString(w, ",")
}

// Stats are the store's monotonic counters plus its current footprint,
// reported by sweeprun -cache on stderr.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Evictions   uint64 `json:"evictions"`
	Corruptions uint64 `json:"corruptions"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
}

// entry is the in-memory index record of one stored key.
type entry struct {
	key  Key
	size int64 // on-disk file size (header + payload)
	seq  uint64
	prev *entry
	next *entry
}

// Store is an on-disk content-addressed store. All methods are safe for
// concurrent use; the mutex also serializes disk I/O, which keeps the
// write path trivially atomic-per-entry (rename) without write-ahead
// machinery.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[Key]*entry
	// head/tail delimit the recency list: head = most recently used,
	// tail = eviction candidate.
	head, tail *entry
	seq        uint64
	bytes      int64
	stats      Stats
}

// magic is the envelope format tag; bump it on any header change so old
// stores read as corrupt (and self-heal) instead of misparsing.
const magic = "cas1"

// Open opens (creating if needed) a store rooted at dir. maxBytes <= 0
// disables the size cap. Existing entries are indexed by scanning the
// shard directories; their relative recency is their write order (the
// envelope's sequence number) — access order is tracked in memory only,
// so a reopened store starts from write order, which is deterministic.
// Unparseable entries are deleted and counted as corruptions.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[Key]*entry)}
	var found []*entry
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crashed write; the rename never happened, so the entry
			// never existed. Clean it up.
			os.Remove(path)
			return nil
		}
		k, kerr := ParseKey(name)
		info, ierr := d.Info()
		if kerr != nil || ierr != nil {
			s.stats.Corruptions++
			os.Remove(path)
			return nil
		}
		seq, herr := readHeaderSeq(path, k)
		if herr != nil {
			s.stats.Corruptions++
			os.Remove(path)
			return nil
		}
		found = append(found, &entry{key: k, size: info.Size(), seq: seq})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: scanning %s: %w", dir, err)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	for _, e := range found {
		s.entries[e.key] = e
		s.pushFront(e)
		s.bytes += e.size
		if e.seq >= s.seq {
			s.seq = e.seq + 1
		}
	}
	s.evictLocked(nil)
	return s, nil
}

// Dir reports the store root.
func (s *Store) Dir() string { return s.dir }

// path returns the entry file for a key: <dir>/<hex[:2]>/<hex>.
func (s *Store) path(k Key) string {
	hexKey := k.String()
	return filepath.Join(s.dir, hexKey[:2], hexKey)
}

// Get returns the payload stored under k. A missing key, or an entry
// that fails the integrity check (which is deleted and counted as a
// corruption), reports ok = false.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	payload, err := readEntry(s.path(k), k)
	if err != nil {
		s.dropLocked(e, true)
		s.stats.Misses++
		return nil, false
	}
	s.touchLocked(e)
	s.stats.Hits++
	return payload, true
}

// Contains reports whether k is indexed, without reading or touching
// the entry.
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[k]
	return ok
}

// Put stores payload under k, overwriting any previous entry, then
// enforces the size cap by evicting least-recently-used entries. A
// payload too large for the cap on its own is written and immediately
// evicted — Put never fails just because the value is big.
func (s *Store) Put(k Key, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq
	s.seq++
	size, err := writeEntry(s.path(k), k, seq, payload)
	if err != nil {
		return err
	}
	if old, ok := s.entries[k]; ok {
		s.bytes -= old.size
		old.size = size
		old.seq = seq
		s.touchLocked(old)
	} else {
		e := &entry{key: k, size: size, seq: seq}
		s.entries[k] = e
		s.pushFront(e)
	}
	s.bytes += size
	s.stats.Puts++
	s.evictLocked(nil)
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.MaxBytes = s.maxBytes
	return st
}

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// evictLocked deletes LRU entries until the footprint fits the cap.
// keep, when non-nil, is exempt (unused today; the just-put entry is
// the MRU so it goes last anyway).
func (s *Store) evictLocked(keep *entry) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.tail != nil {
		e := s.tail
		if e == keep {
			break
		}
		s.dropLocked(e, false)
		s.stats.Evictions++
	}
}

// dropLocked removes an entry from the index, the recency list and the
// disk.
func (s *Store) dropLocked(e *entry, corrupt bool) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.bytes -= e.size
	os.Remove(s.path(e.key))
	if corrupt {
		s.stats.Corruptions++
	}
}

func (s *Store) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) touchLocked(e *entry) {
	s.unlink(e)
	s.pushFront(e)
}

// writeEntry renders the envelope to a temp file in the shard directory
// and renames it into place — readers never observe a partial entry.
func writeEntry(path string, k Key, seq uint64, payload []byte) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("cas: %w", err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d %s %d\n", magic, k, seq, hex.EncodeToString(sum[:]), len(payload))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("cas: %w", err)
	}
	if _, err := io.WriteString(f, header); err == nil {
		_, err = f.Write(payload)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("cas: writing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("cas: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("cas: %w", err)
	}
	return int64(len(header) + len(payload)), nil
}

// parseHeader splits and checks one envelope header line against the
// expected key, returning the sequence number and declared payload
// length.
func parseHeader(line string, k Key) (seq uint64, sum string, n int, err error) {
	parts := strings.Fields(strings.TrimSuffix(line, "\n"))
	if len(parts) != 5 || parts[0] != magic {
		return 0, "", 0, fmt.Errorf("cas: bad envelope header")
	}
	if parts[1] != k.String() {
		return 0, "", 0, fmt.Errorf("cas: envelope key mismatch")
	}
	if seq, err = strconv.ParseUint(parts[2], 10, 64); err != nil {
		return 0, "", 0, fmt.Errorf("cas: bad sequence: %w", err)
	}
	if n, err = strconv.Atoi(parts[4]); err != nil || n < 0 {
		return 0, "", 0, fmt.Errorf("cas: bad payload length")
	}
	return seq, parts[3], n, nil
}

// readHeaderSeq reads just the envelope header — the Open scan path.
func readHeaderSeq(path string, k Key) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, err
	}
	seq, _, _, err := parseHeader(line, k)
	return seq, err
}

// readEntry reads and integrity-checks one entry: the declared length
// must match the bytes present and the payload must hash to the
// recorded sum.
func readEntry(path string, k Key) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	i := strings.IndexByte(string(data), '\n')
	if i < 0 {
		return nil, fmt.Errorf("cas: truncated envelope")
	}
	_, sum, n, err := parseHeader(string(data[:i+1]), k)
	if err != nil {
		return nil, err
	}
	payload := data[i+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("cas: payload length %d, declared %d", len(payload), n)
	}
	got := sha256.Sum256(payload)
	if hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("cas: payload checksum mismatch")
	}
	return payload, nil
}

// moduleOnce caches the per-process fingerprint; the source tree cannot
// change under a running process in any way the cache could notice
// anyway (the binary is already built).
var moduleOnce = sync.OnceValue(func() string {
	if dir, ok := findModuleRoot(); ok {
		if fp, err := FingerprintDir(dir); err == nil {
			return fp
		}
	}
	return buildInfoFingerprint()
})

// ModuleFingerprint returns the code fingerprint mixed into every sweep
// cache key: a hash of the enclosing module's go.mod and every
// non-test .go file (testdata and hidden directories excluded), located
// by walking up from the working directory. When no module root is
// findable (an installed binary run elsewhere), it falls back to the
// embedded build info, and as a last resort to the toolchain version —
// strictly coarser keys, never wrong ones: any doubt about what code is
// running becomes a cache miss, not a stale hit.
func ModuleFingerprint() string { return moduleOnce() }

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, bool) {
	dir, err := os.Getwd()
	if err != nil {
		return "", false
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}

// FingerprintDir hashes the code-relevant content of a module tree:
// go.mod plus every *.go file that is not a _test.go, skipping testdata
// and dot-directories. Paths are hashed in sorted slash form, each with
// its content hash, so the fingerprint is independent of walk order and
// host path separators. Editing any production source changes the
// fingerprint; editing tests, docs, or committed BENCH baselines does
// not.
func FingerprintDir(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name == "go.mod" || (strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("cas: fingerprinting %s: %w", root, err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return "", err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("cas: fingerprinting %s: %w", path, err)
		}
		sum := sha256.Sum256(data)
		writeNetstring(h, filepath.ToSlash(rel))
		writeNetstring(h, hex.EncodeToString(sum[:]))
	}
	return "src:" + hex.EncodeToString(h.Sum(nil)), nil
}

// buildInfoFingerprint derives a fingerprint from the embedded build
// info: the main module version, dependency sums and VCS stamp when
// present. Distinct builds of distinct code usually differ here; when
// even that is absent the toolchain version alone remains, which at
// least partitions caches across Go releases.
func buildInfoFingerprint() string {
	h := sha256.New()
	if bi, ok := debug.ReadBuildInfo(); ok {
		writeNetstring(h, bi.GoVersion)
		writeNetstring(h, bi.Main.Path)
		writeNetstring(h, bi.Main.Version)
		writeNetstring(h, bi.Main.Sum)
		for _, dep := range bi.Deps {
			writeNetstring(h, dep.Path)
			writeNetstring(h, dep.Version)
			writeNetstring(h, dep.Sum)
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				writeNetstring(h, s.Key)
				writeNetstring(h, s.Value)
			}
		}
	}
	return "bld:" + hex.EncodeToString(h.Sum(nil))
}
