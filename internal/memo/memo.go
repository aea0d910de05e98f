// Package memo is the content-addressed cell-result cache. A key is the
// full, human-readable identity of a computation — canonical spec plus
// engine schema version (see Fingerprint) — and the cached value is the
// canonical JSON of its result. Because every simulation in this
// repository is deterministic and bit-exact (the property the runner's
// checkpoint machinery already relies on), two computations with equal
// keys produce byte-identical values, which is what makes serving a hit
// safe: a hit is indistinguishable from recomputing.
//
// The cache is two-tiered:
//
//   - an in-process LRU (bounded by Options.MaxEntries) absorbs repeat
//     lookups within one process with no I/O;
//   - a durable on-disk store (Options.Dir; one file per key, named by
//     the SHA-256 of the key) persists results across processes and is
//     shared cluster-wide when nvmd points every job at the same
//     directory.
//
// Disk entries are written through internal/atomicio, so a crash never
// leaves a torn entry behind, and each file carries a self-describing
// envelope {key, value}: a read validates that the envelope's key equals
// the requested key (defending the one-in-2^128 hash collision and, more
// practically, files shuffled between directories). An entry that fails
// to parse or validate is quarantined — renamed to <name>.corrupt, like
// the service's checkpoint quarantine — counted in Stats, and reported
// as a miss so the caller recomputes. Corrupt entries are never served.
//
// GetOrCompute adds singleflight dedup: concurrent callers with the same
// key compute once — the first becomes the leader, the rest wait and
// share its value. A leader failure (including its own context
// cancellation) is never cached; each waiter then retries and may become
// the leader under its own context, so one canceled job cannot poison a
// cell for another.
//
// The cache is an optimization, never a correctness dependency: a failed
// disk write degrades the cache (counted in Stats.WriteErrors) without
// failing the computation that produced the value.
package memo

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync" //lint:allow nondeterminism "the cache is shared mutable state across runner workers and nvmd jobs; values are content-addressed and bit-exact, so lookup order cannot change any served byte"

	"maxwe/internal/atomicio"
)

// Fingerprint derives a content-address for v: scope, a slash, and the
// hex SHA-256 of v's canonical JSON. Scope names what kind of value is
// addressed and carries the version that invalidates it (e.g.
// "maxwe-config/v1"); keys with different scopes can never collide.
func Fingerprint(scope string, v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Only unmarshalable types (channels, funcs) reach here — a
		// programming error at the call site, not an input condition.
		panic(fmt.Errorf("memo: fingerprint %s: %w", scope, err))
	}
	sum := sha256.Sum256(raw)
	return scope + "/" + hex.EncodeToString(sum[:])
}

// Peer is a remote cache another node exposes — for nvmd serve
// -cache-peer, a sibling daemon's /v1/cluster/cache/get surface. A peer
// is consulted only after both local tiers miss, and exclusively as an
// optimization: any fetch failure (network, timeout, peer down) must be
// reported as a plain miss so the caller computes locally.
// Implementations must be safe for concurrent use.
type Peer interface {
	// Fetch returns the peer's value for key; ok is false on a miss or
	// on any transport failure.
	Fetch(key string) (val []byte, ok bool)
}

// Options configures Open. The zero value is a memory-only cache with
// the default LRU bound.
type Options struct {
	// Dir, when non-empty, roots the durable tier: one file per key,
	// created on demand. Empty disables the disk tier (memory only).
	Dir string
	// MaxEntries bounds the in-process LRU (0 selects 4096). When the
	// bound is reached the least recently used entry is evicted from
	// memory; its disk file, if any, remains.
	MaxEntries int
	// FS is the filesystem the disk tier writes through. Nil selects the
	// real filesystem (atomicio.OS); the chaos harness can pass a
	// fault-injecting implementation.
	FS atomicio.FS
	// Peer, when non-nil, adds a third lookup tier behind memory and
	// disk: a remote cache (another nvmd's cluster cache surface) probed
	// on a local miss. A peer hit is written through to both local tiers
	// so it is served locally from then on; a peer failure is a miss.
	Peer Peer
}

// Stats is a point-in-time snapshot of the cache counters, served by
// nvmd as GET /v1/cache/stats and folded into /metrics.
type Stats struct {
	// Hits counts lookups served without computing: memory, disk, and
	// singleflight (dedup) hits combined.
	Hits int64 `json:"hits"`
	// MemHits and DiskHits break Hits down by serving tier.
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	// DedupHits counts GetOrCompute callers served by a concurrent
	// leader's computation instead of their own.
	DedupHits int64 `json:"dedup_hits"`
	// Misses counts lookups that found nothing and (for GetOrCompute)
	// led the caller to compute.
	Misses int64 `json:"misses"`
	// Puts counts values stored (one per unique computation).
	Puts int64 `json:"puts"`
	// Corrupt counts disk entries quarantined to <name>.corrupt because
	// they failed to parse or validate. A quarantined entry is recomputed,
	// never served.
	Corrupt int64 `json:"corrupt"`
	// WriteErrors counts disk writes that failed; the value was still
	// returned to the caller (the cache degrades, the computation does
	// not fail).
	WriteErrors int64 `json:"write_errors"`
	// BytesRead and BytesWritten count disk-tier traffic.
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// PeerHits counts lookups served by the configured peer (a remote
	// cache probed after both local tiers missed); PeerMisses counts
	// peer probes that found nothing (transport failures included), and
	// PeerBytes the bytes fetched from the peer. All zero when no peer
	// is configured.
	PeerHits   int64 `json:"peer_hits"`
	PeerMisses int64 `json:"peer_misses"`
	PeerBytes  int64 `json:"peer_bytes"`
	// Entries is the current in-memory LRU population.
	Entries int `json:"entries"`
}

// envelope is the on-disk document: the key makes each entry
// self-describing, so a read can prove the file holds the value it was
// asked for before serving it.
type envelope struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Cache is the two-tier content-addressed store. All methods are safe
// for concurrent use. Values handed in and out are aliased, not copied
// — callers must treat them as immutable.
type Cache struct {
	dir        string
	maxEntries int
	fs         atomicio.FS
	peer       Peer

	mu      sync.Mutex
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key → element whose Value is *entry
	flights map[string]*flight
	stats   Stats
}

// entry is one in-memory LRU record.
type entry struct {
	key string
	val []byte
}

// flight is one in-progress computation waiters can join. done is closed
// after val/err are set, which publishes them to every waiter.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Open creates a cache. With Options.Dir set, the directory is created
// if missing.
func Open(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	if opts.FS == nil {
		opts.FS = atomicio.OS
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: create cache dir: %w", err)
		}
	}
	return &Cache{
		dir:        opts.Dir,
		maxEntries: opts.MaxEntries,
		fs:         opts.FS,
		peer:       opts.Peer,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*flight),
	}, nil
}

// path names the disk file for key: the hex SHA-256 of the key plus
// ".json". Hashing keeps arbitrary key strings (slashes, percent signs)
// out of file names while the envelope preserves the readable key.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// Get returns the cached value for key, consulting memory then disk.
// A disk hit is promoted into memory. ok is false on a miss (including
// a quarantined corrupt entry).
func (c *Cache) Get(key string) (val []byte, ok bool) {
	val, tier := c.lookup(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countLocked(tier, len(val))
	return val, tier != tierMiss
}

// tiers classify where lookup found (or did not find) a value.
const (
	tierMiss = iota
	tierMem
	tierDisk
	tierPeer
)

// countLocked folds one lookup outcome into the stats. Caller holds
// c.mu. Peer-probe accounting (PeerMisses) happens in lookup itself,
// because a peer miss still ends as an overall miss here.
func (c *Cache) countLocked(tier, size int) {
	switch tier {
	case tierMem:
		c.stats.Hits++
		c.stats.MemHits++
	case tierDisk:
		c.stats.Hits++
		c.stats.DiskHits++
	case tierPeer:
		c.stats.Hits++
		c.stats.PeerHits++
		c.stats.PeerBytes += int64(size)
	default:
		c.stats.Misses++
	}
}

// lookup is Get without the stats accounting (GetOrCompute does its own:
// one outcome per call, however many internal probes the singleflight
// loop makes).
func (c *Cache) lookup(key string) ([]byte, int) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, tierMem
	}
	c.mu.Unlock()
	if val, ok := c.lookupDisk(key); ok {
		return val, tierDisk
	}
	if val, ok := c.lookupPeer(key); ok {
		return val, tierPeer
	}
	return nil, tierMiss
}

// lookupDisk probes the durable tier and promotes a hit into memory.
func (c *Cache) lookupDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	// Disk probe outside the lock: file I/O must never serialize the
	// memory tier.
	path := c.path(key)
	data, err := c.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		// An unreadable entry (permissions, I/O error) is a miss, not a
		// failure: the caller recomputes.
		return nil, false
	}
	var env envelope
	if uerr := json.Unmarshal(data, &env); uerr != nil || env.Key != key || len(env.Value) == 0 {
		c.quarantine(path)
		return nil, false
	}
	c.mu.Lock()
	c.stats.BytesRead += int64(len(data))
	c.insertLocked(key, []byte(env.Value))
	c.mu.Unlock()
	return []byte(env.Value), true
}

// lookupPeer probes the configured remote peer (the peer-fill path of
// nvmd serve -cache-peer). A hit is written through to both local tiers
// so the entry is served locally from then on; a probe failure — or a
// peer value that is not valid JSON — is a miss, never an error, because
// the peer is an optimization the caller can always compute around.
func (c *Cache) lookupPeer(key string) ([]byte, bool) {
	if c.peer == nil {
		return nil, false
	}
	// Network probe outside the lock, like the disk tier.
	val, ok := c.peer.Fetch(key)
	if !ok || len(val) == 0 || !json.Valid(val) {
		c.mu.Lock()
		c.stats.PeerMisses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
	// Write-through so a restart hits the disk tier instead of the
	// network; a write failure only degrades (counted in WriteErrors).
	_ = c.writeDisk(key, val)
	return val, true
}

// quarantine renames a corrupt disk entry aside (<name>.corrupt) so it
// is never read again, mirroring the service's checkpoint quarantine.
func (c *Cache) quarantine(path string) {
	// Best effort: if the rename fails the entry still parses as corrupt
	// on every read and is never served.
	_ = c.fs.Rename(path, path+".corrupt")
	c.mu.Lock()
	c.stats.Corrupt++
	c.mu.Unlock()
}

// insertLocked records key→val in the memory tier, evicting the least
// recently used entry over the bound. Caller holds c.mu.
func (c *Cache) insertLocked(key string, val []byte) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry).val = val
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, val: val})
	for c.order.Len() > c.maxEntries {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
	}
}

// Put stores val under key in both tiers. A disk-tier write failure is
// returned after the memory tier is updated, but callers may ignore it:
// the value is served from memory either way, and Stats.WriteErrors
// records the degradation.
func (c *Cache) Put(key string, val []byte) error {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.stats.Puts++
	c.mu.Unlock()
	return c.writeDisk(key, val)
}

// writeDisk persists one entry through atomicio (temp → fsync → rename
// → fsync dir), so a crash can only leave the previous generation or
// the complete new one.
func (c *Cache) writeDisk(key string, val []byte) error {
	if c.dir == "" {
		return nil
	}
	data, err := json.Marshal(envelope{Key: key, Value: json.RawMessage(val)})
	if err != nil {
		// val is not valid JSON — a call-site bug, surfaced not cached.
		return fmt.Errorf("memo: entry %q is not valid JSON: %w", key, err)
	}
	if err := atomicio.WriteFile(c.fs, c.path(key), data); err != nil {
		c.mu.Lock()
		c.stats.WriteErrors++
		c.mu.Unlock()
		return fmt.Errorf("memo: write entry %q: %w", key, err)
	}
	c.mu.Lock()
	c.stats.BytesWritten += int64(len(data))
	c.mu.Unlock()
	return nil
}

// Discard drops key from both tiers, quarantining the disk file if one
// exists. Used when a served value turns out not to decode as the type
// the caller expected — the entry is poisoned for that fingerprint and
// must be recomputed, never served again.
func (c *Cache) Discard(key string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	path := c.path(key)
	if _, err := c.fs.ReadFile(path); err == nil {
		c.quarantine(path)
	}
}

// GetOrCompute returns the value for key, computing it with compute on
// a miss. Concurrent calls with the same key are deduplicated: one
// caller (the leader) runs compute, the rest wait on its result. hit
// reports whether the value was served without this caller computing
// it (cache hit or dedup hit).
//
// A compute error is returned to the leader and never cached; waiting
// callers then retry the whole sequence and may become the leader
// themselves, so a leader canceled by its own context cannot poison the
// key for callers whose contexts are still live. ctx bounds only the
// wait on a concurrent leader — compute receives whatever context it
// closed over.
//
// A disk-tier write failure after a successful compute is absorbed
// (counted in Stats.WriteErrors): the computation's value is always
// returned.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	for {
		if val, tier := c.lookup(key); tier != tierMiss {
			c.mu.Lock()
			c.countLocked(tier, len(val))
			c.mu.Unlock()
			return val, true, nil
		}
		c.mu.Lock()
		if fl, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if fl.err == nil {
				c.mu.Lock()
				c.stats.Hits++
				c.stats.DedupHits++
				c.mu.Unlock()
				return fl.val, true, nil
			}
			// The leader failed — possibly its own cancellation. Loop:
			// re-probe the cache, then race to become the new leader.
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.flights[key] = fl
		c.stats.Misses++
		c.mu.Unlock()

		val, err := compute()
		if err == nil {
			// Write-error degradation only: the counter records it, the
			// value is still returned and served from memory.
			_ = c.Put(key, val)
		}
		fl.val, fl.err = val, err
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		// Closing after the delete publishes val/err to waiters and
		// guarantees a retrying waiter sees either the cached value or
		// an empty flight slot.
		close(fl.done)
		return val, false, err
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	return s
}
