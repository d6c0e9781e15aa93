//! Content-addressed result cache: an in-memory tier plus an optional
//! on-disk tier.
//!
//! Entries are addressed by the FNV-1a digest of a *descriptor* — a
//! canonical string spelling out every input that can change the result
//! (for experiment cells: SKU, topology size, model, strategy, batch,
//! precision, datapath, caps, overlap policy, and the calibration-constant
//! version). The cache stores the descriptor alongside the value and
//! verifies it on every lookup, so a digest collision degrades to a miss,
//! never to a wrong answer.
//!
//! The disk tier is one file per entry under a user-chosen directory,
//! written with the hand-rolled byte codec in this module (the workspace
//! takes no serialization dependency). Files are written to a temp name
//! unique per (process, instance, write) and renamed into place, so
//! concurrent writers and readers — including several sweep processes
//! sharing one `--cache` directory — only ever see whole entries.
//!
//! ## Service-grade hardening
//!
//! * **Advisory leases + stale-`.tmp` reaping** — every instance drops a
//!   `lease.{pid}.{instance}` marker in the directory (removed on drop).
//!   Opening a cache reaps `.tmp` files whose writing process is provably
//!   dead (no lease and no `/proc/{pid}` on Linux), so a writer that died
//!   between write and rename cannot leak files forever.
//! * **Size-capped deterministic eviction** — with a byte cap configured,
//!   [`ResultCache::enforce_disk_cap`] evicts `*.cell` files cold-first
//!   (entries this process has not touched), each group ordered by
//!   ascending recompute cost ([`CacheCost`]) then ascending key: a total
//!   order independent of scheduling, so serial and parallel sweeps leave
//!   byte-identical directories.
//! * **Cost/size-aware admission** — jobs declare how expensive their
//!   value is to recompute ([`ResultCache::insert_with_cost`]); under a
//!   byte cap, cheap entries (such as error records) are evicted before
//!   expensive simulation results, and a single entry larger than the
//!   whole cap is denied disk admission outright
//!   ([`CacheCounters::admission_rejected`]) instead of flushing the tier.
//! * **Graceful degradation** — a disk write failing with `ENOSPC` or
//!   `EACCES` latches the cache into memory-only operation instead of
//!   failing every subsequent cell; [`ResultCache::health`] reports it.
//! * **Quarantine evidence preservation** — repeated quarantines of one
//!   key land on `.corrupt`, `.corrupt.1`, `.corrupt.2`, … so earlier
//!   evidence is never clobbered.

use crate::hash::fnv1a_64;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

#[cfg(any(test, feature = "chaos"))]
use crate::chaos::ChaosPlan;

/// Distinguishes instances within one process so their tmp names and
/// leases never collide.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Magic prefix of every cache file (`OLABGRD` + format version).
/// Version 2 appends a trailing FNV-1a checksum over the whole entry.
const MAGIC: &[u8; 8] = b"OLABGRD2";

/// A little-endian byte writer for cache payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked little-endian reader over a cache payload.
///
/// Every getter returns `None` on underrun or malformed data instead of
/// panicking: a truncated or foreign file must read as "absent", not crash
/// a sweep.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Option<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A value the cache can hold: cloneable across threads and round-trippable
/// through the byte codec for the disk tier.
pub trait CacheValue: Clone + Send {
    /// Serializes `self` into the writer.
    fn encode(&self, w: &mut Writer);
    /// Deserializes a value; `None` on malformed input.
    fn decode(r: &mut Reader<'_>) -> Option<Self>
    where
        Self: Sized;
}

/// Which tier (if any) served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from the in-process map.
    Memory,
    /// Served from (and promoted out of) the on-disk tier.
    Disk,
}

/// How expensive a cached value would be to *recompute* — the currency of
/// the disk tier's admission/eviction policy. The variant order is the
/// eviction order: under a byte cap, `Cheap` entries (microseconds to
/// regenerate, such as error records) are dropped before `Standard` ones,
/// and `Expensive` entries (full simulation results) go last — a burst of
/// cheap entries can no longer wash costly results out of a capped cache.
///
/// Costs are tracked in-process for keys inserted through
/// [`ResultCache::insert_with_cost`]; entries from earlier processes have
/// unknown cost and rank as `Standard`. Because a job's cost is a pure
/// function of the cell, the ranking — like the rest of the eviction
/// policy — is identical between serial and parallel sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheCost {
    /// Trivially recomputable (e.g. error records).
    Cheap,
    /// Unclassified — the default for jobs without a hint, and for disk
    /// entries inherited from other processes.
    #[default]
    Standard,
    /// Costly to recompute (e.g. full event-loop simulations).
    Expensive,
}

/// Lifetime hit/miss/store counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served by the in-memory tier.
    pub memory_hits: u64,
    /// Lookups served by the disk tier.
    pub disk_hits: u64,
    /// Lookups served by neither tier.
    pub misses: u64,
    /// Values inserted (one per computed cell).
    pub stores: u64,
    /// Disk entries that failed integrity verification and were renamed to
    /// `*.corrupt` (each also counts as a miss and is recomputed).
    pub quarantined: u64,
    /// Disk entries removed by the size-cap eviction policy.
    pub evicted: u64,
    /// Stale `.tmp` files from provably dead writers removed at open.
    pub tmp_reaped: u64,
    /// Values denied disk-tier admission because one encoded entry alone
    /// would exceed the configured byte cap (they stay in memory).
    pub admission_rejected: u64,
}

impl CacheCounters {
    /// All hits, both tiers.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// A typed report on the disk tier's condition, for telemetry and
/// operator-facing diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheHealth {
    /// A disk tier was configured.
    pub disk_enabled: bool,
    /// The disk tier latched into memory-only degradation (ENOSPC or
    /// EACCES on a write).
    pub degraded: bool,
    /// The error that tripped degradation, when degraded.
    pub degraded_reason: Option<String>,
    /// `*.cell` entries currently on disk.
    pub disk_entries: u64,
    /// Bytes held by `*.cell` entries on disk.
    pub disk_bytes: u64,
    /// The configured eviction cap, when one is set.
    pub max_disk_bytes: Option<u64>,
}

/// The two-tier content-addressed cache.
#[derive(Debug)]
pub struct ResultCache<V> {
    memory: Mutex<HashMap<u64, (String, V)>>,
    /// Recompute-cost classes of keys inserted by this process, feeding
    /// the eviction order of [`ResultCache::enforce_disk_cap`].
    costs: Mutex<HashMap<u64, CacheCost>>,
    disk_dir: Option<PathBuf>,
    max_disk_bytes: Option<u64>,
    lease_path: Option<PathBuf>,
    instance: u64,
    tmp_seq: AtomicU64,
    degraded: AtomicBool,
    degraded_reason: Mutex<Option<String>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
    tmp_reaped: AtomicU64,
    admission_rejected: AtomicU64,
    #[cfg(any(test, feature = "chaos"))]
    chaos: Option<ChaosPlan>,
}

impl<V: CacheValue> ResultCache<V> {
    /// An in-memory-only cache.
    pub fn in_memory() -> Self {
        ResultCache {
            memory: Mutex::new(HashMap::new()),
            costs: Mutex::new(HashMap::new()),
            disk_dir: None,
            max_disk_bytes: None,
            lease_path: None,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            tmp_seq: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(None),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            tmp_reaped: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            #[cfg(any(test, feature = "chaos"))]
            chaos: None,
        }
    }

    /// A cache backed by `dir` (created if absent) in addition to memory.
    ///
    /// Opening reaps stale `.tmp` files left by provably dead writers
    /// (counted in [`CacheCounters::tmp_reaped`]) and drops an advisory
    /// lease file, removed when this instance is dropped, so future
    /// openers can tell live writers from dead ones.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure when the directory can
    /// neither be found nor created.
    pub fn with_disk(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut cache = Self::in_memory();
        let reaped = reap_stale_tmp(&dir);
        cache.tmp_reaped.store(reaped, Ordering::Relaxed);
        crate::metrics::grid_metrics().cache_tmp_reaped.add(reaped);
        let lease = dir.join(format!("lease.{}.{}", std::process::id(), cache.instance));
        // The lease is advisory: failing to write it (read-only directory)
        // costs reap precision for others, never the sweep.
        let _ = fs::write(&lease, b"olab-grid writer lease\n");
        cache.lease_path = Some(lease);
        cache.disk_dir = Some(dir);
        Ok(cache)
    }

    /// Like [`ResultCache::with_disk`] with a byte cap on the disk tier,
    /// enforced immediately (pre-existing directories shrink to fit) and
    /// again whenever [`ResultCache::enforce_disk_cap`] runs.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure, as [`ResultCache::with_disk`].
    pub fn with_disk_capped(dir: impl Into<PathBuf>, max_bytes: u64) -> io::Result<Self> {
        let mut cache = Self::with_disk(dir)?;
        cache.max_disk_bytes = Some(max_bytes);
        cache.enforce_disk_cap();
        Ok(cache)
    }

    /// Sets or clears the disk-tier byte cap, enforcing it right away when
    /// set.
    pub fn set_disk_cap(&mut self, max_bytes: Option<u64>) {
        self.max_disk_bytes = max_bytes;
        if max_bytes.is_some() {
            self.enforce_disk_cap();
        }
    }

    /// Arms deterministic fault injection on this instance's disk IO (see
    /// [`crate::chaos`]). Test/feature-gated; production builds have no
    /// chaos branches.
    #[cfg(any(test, feature = "chaos"))]
    pub fn set_chaos(&mut self, plan: Option<ChaosPlan>) {
        self.chaos = plan;
    }

    /// The key for a descriptor: its FNV-1a 64 digest.
    pub fn key_of(descriptor: &str) -> u64 {
        fnv1a_64(descriptor.as_bytes())
    }

    /// Looks `descriptor` up, memory tier first. A disk hit is promoted
    /// into memory. Returns the value and the tier that served it.
    pub fn lookup(&self, descriptor: &str) -> Option<(V, CacheTier)> {
        let m = crate::metrics::grid_metrics();
        let start = olab_metrics::now_if_enabled();
        let key = Self::key_of(descriptor);
        {
            let memory = self.memory.lock().expect("cache map poisoned");
            if let Some((stored, value)) = memory.get(&key) {
                if stored == descriptor {
                    self.memory_hits.fetch_add(1, Ordering::Relaxed);
                    m.cache_memory_hits.inc();
                    m.cache_lookup_memory_hit_ns.observe_since(start);
                    return Some((value.clone(), CacheTier::Memory));
                }
            }
        }
        if let Some(value) = self.disk_lookup(key, descriptor) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.memory
                .lock()
                .expect("cache map poisoned")
                .insert(key, (descriptor.to_string(), value.clone()));
            m.cache_disk_hits.inc();
            m.cache_lookup_disk_hit_ns.observe_since(start);
            return Some((value, CacheTier::Disk));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        m.cache_misses.inc();
        m.cache_lookup_miss_ns.observe_since(start);
        None
    }

    /// Stores a computed value under `descriptor` in every configured tier.
    /// Disk write failures are swallowed — a read-only cache directory
    /// costs persistence, not the sweep — except that `ENOSPC`/`EACCES`
    /// additionally latch the disk tier into memory-only degradation (see
    /// [`ResultCache::health`]) so a full disk fails one write, not one
    /// write per cell.
    pub fn insert(&self, descriptor: &str, value: V) {
        self.insert_with_cost(descriptor, value, CacheCost::Standard);
    }

    /// Like [`ResultCache::insert`], additionally recording the value's
    /// recompute-cost class for the eviction policy (see [`CacheCost`]).
    /// The [`crate::GridJob::cost_hint`] of the computing job is what the
    /// sweep engine passes here.
    pub fn insert_with_cost(&self, descriptor: &str, value: V, cost: CacheCost) {
        let m = crate::metrics::grid_metrics();
        let start = olab_metrics::now_if_enabled();
        let key = Self::key_of(descriptor);
        self.stores.fetch_add(1, Ordering::Relaxed);
        m.cache_stores.inc();
        if let Some(dir) = &self.disk_dir {
            self.costs
                .lock()
                .expect("cost map poisoned")
                .insert(key, cost);
            if !self.degraded.load(Ordering::SeqCst) {
                if let Err(err) = self.write_entry(dir, key, descriptor, &value) {
                    self.note_write_failure(&err);
                }
            }
        }
        self.memory
            .lock()
            .expect("cache map poisoned")
            .insert(key, (descriptor.to_string(), value));
        m.cache_insert_ns.observe_since(start);
    }

    /// Entries currently resident in the memory tier.
    pub fn len(&self) -> usize {
        self.memory.lock().expect("cache map poisoned").len()
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The disk directory, when a disk tier is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// A snapshot of the hit/miss/store counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            tmp_reaped: self.tmp_reaped.load(Ordering::Relaxed),
            admission_rejected: self.admission_rejected.load(Ordering::Relaxed),
        }
    }

    /// True once the disk tier latched into memory-only degradation.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// A typed report on the disk tier: degradation state, occupancy, and
    /// the configured cap.
    pub fn health(&self) -> CacheHealth {
        let (disk_entries, disk_bytes) = match &self.disk_dir {
            Some(dir) => {
                let cells = scan_cells(dir);
                (cells.len() as u64, cells.iter().map(|&(_, b)| b).sum())
            }
            None => (0, 0),
        };
        CacheHealth {
            disk_enabled: self.disk_dir.is_some(),
            degraded: self.is_degraded(),
            degraded_reason: self
                .degraded_reason
                .lock()
                .expect("degradation reason poisoned")
                .clone(),
            disk_entries,
            disk_bytes,
            max_disk_bytes: self.max_disk_bytes,
        }
    }

    /// Enforces the disk-tier byte cap, if one is set: while `*.cell`
    /// bytes exceed the cap, evicts entries this process has *not* touched
    /// (absent from the memory tier) before touched ones, each partition
    /// ordered by ascending recompute cost ([`CacheCost`]) and then
    /// ascending key — so cheap entries go before expensive simulation
    /// results of the same temperature. The candidate set, the
    /// cost ranks (pure functions of the cells), and the order are all
    /// independent of worker scheduling, so serial and parallel sweeps
    /// evict identically — the determinism contract extends to the cache
    /// directory itself. Returns entries evicted by this call (also
    /// accumulated into [`CacheCounters::evicted`]).
    pub fn enforce_disk_cap(&self) -> u64 {
        let (Some(dir), Some(cap)) = (&self.disk_dir, self.max_disk_bytes) else {
            return 0;
        };
        if self.degraded.load(Ordering::SeqCst) {
            return 0;
        }
        let cells = scan_cells(dir);
        let mut total: u64 = cells.iter().map(|&(_, b)| b).sum();
        if total <= cap {
            return 0;
        }
        let hot: HashSet<u64> = self
            .memory
            .lock()
            .expect("cache map poisoned")
            .keys()
            .copied()
            .collect();
        let (mut cold, mut warm): (Vec<_>, Vec<_>) =
            cells.into_iter().partition(|(k, _)| !hot.contains(k));
        // Within each temperature, cheapest-to-recompute first; keys this
        // process never inserted rank `Standard`. `scan_cells` returns
        // ascending keys and the sort is stable, so ties stay key-ordered.
        {
            let costs = self.costs.lock().expect("cost map poisoned");
            let rank = |k: u64| costs.get(&k).copied().unwrap_or_default();
            cold.sort_by_key(|&(k, _)| rank(k));
            warm.sort_by_key(|&(k, _)| rank(k));
        }
        let mut evicted = 0u64;
        for (key, bytes) in cold.into_iter().chain(warm) {
            if total <= cap {
                break;
            }
            if fs::remove_file(entry_path(dir, key)).is_ok() {
                total = total.saturating_sub(bytes);
                evicted += 1;
            }
        }
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        crate::metrics::grid_metrics().cache_evicted.add(evicted);
        evicted
    }

    fn disk_lookup(&self, key: u64, descriptor: &str) -> Option<V> {
        let dir = self.disk_dir.as_ref()?;
        if self.degraded.load(Ordering::SeqCst) {
            return None;
        }
        let path = entry_path(dir, key);
        let bytes = fs::read(&path).ok()?;
        match parse_entry::<V>(&bytes, key, descriptor) {
            EntryOutcome::Value(v) => Some(v),
            // Intact entry for some *other* cell (digest collision, renamed
            // file): a plain miss, the file stays.
            EntryOutcome::Foreign => None,
            EntryOutcome::Corrupt => {
                // Bit rot, truncation, or a non-cache file squatting on the
                // name: move it aside so the recompute can land a fresh
                // entry, and keep the evidence for post-mortems. The
                // destination is suffixed past any earlier quarantine of
                // the same key, so repeated corruption never clobbers
                // evidence.
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                crate::metrics::grid_metrics().cache_quarantined.inc();
                let _ = fs::rename(&path, quarantine_dest(dir, key));
                None
            }
        }
    }

    /// Writes one disk entry atomically: full bytes to a tmp name unique
    /// per (process, instance, write), then rename. Chaos fault points
    /// `cache.enospc`, `cache.torn_write`, and `cache.rename_fail` live
    /// here (test/feature builds only).
    fn write_entry(&self, dir: &Path, key: u64, descriptor: &str, value: &V) -> io::Result<()> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(MAGIC);
        w.put_u64(key);
        w.put_str(descriptor);
        value.encode(&mut w);
        let digest = fnv1a_64(&w.buf);
        w.put_u64(digest);
        let bytes = w.into_bytes();

        // Size-aware admission: an entry that alone exceeds the byte cap
        // could never survive enforcement — admitting it would just evict
        // the rest of the tier on its way out. Deny it the disk tier up
        // front; it still serves from memory. A pure function of the entry
        // and the cap, so serial and parallel sweeps decide identically.
        if let Some(cap) = self.max_disk_bytes {
            if bytes.len() as u64 > cap {
                self.admission_rejected.fetch_add(1, Ordering::Relaxed);
                crate::metrics::grid_metrics()
                    .cache_admission_rejected
                    .inc();
                return Ok(());
            }
        }

        #[cfg(any(test, feature = "chaos"))]
        if self.chaos.as_ref().is_some_and(|p| p.enospc(key)) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: injected ENOSPC",
            ));
        }

        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            "{key:016x}.{}.{}.{seq}.tmp",
            std::process::id(),
            self.instance
        ));

        #[cfg(any(test, feature = "chaos"))]
        let written: &[u8] = if self.chaos.as_ref().is_some_and(|p| p.torn_write(key)) {
            // A torn write: only half the entry reaches the disk, as if
            // power failed mid-write on a filesystem without data
            // journaling. The trailing checksum must catch it on read.
            &bytes[..bytes.len() / 2]
        } else {
            &bytes
        };
        #[cfg(not(any(test, feature = "chaos")))]
        let written: &[u8] = &bytes;

        fs::write(&tmp, written)?;

        #[cfg(any(test, feature = "chaos"))]
        if self.chaos.as_ref().is_some_and(|p| p.rename_fail(key)) {
            // The writer "dies" before the rename: the tmp file leaks, and
            // a later open must reap it.
            return Ok(());
        }

        fs::rename(&tmp, entry_path(dir, key))
    }

    /// Classifies a disk write failure: `ENOSPC`/`EACCES` latch the
    /// memory-only degradation flag (first failure records the reason),
    /// anything else stays a swallowed one-off.
    fn note_write_failure(&self, err: &io::Error) {
        let fatal = matches!(
            err.kind(),
            io::ErrorKind::StorageFull | io::ErrorKind::PermissionDenied
        ) || matches!(err.raw_os_error(), Some(28) | Some(13));
        if fatal && !self.degraded.swap(true, Ordering::SeqCst) {
            *self
                .degraded_reason
                .lock()
                .expect("degradation reason poisoned") = Some(err.to_string());
        }
    }
}

impl<V> Drop for ResultCache<V> {
    fn drop(&mut self) {
        if let Some(lease) = &self.lease_path {
            let _ = fs::remove_file(lease);
        }
    }
}

/// What a disk entry turned out to hold.
enum EntryOutcome<V> {
    /// Integrity-verified value for the requested descriptor.
    Value(V),
    /// An intact entry belonging to a different descriptor or key.
    Foreign,
    /// Checksum, framing, or codec failure: the bytes cannot be trusted.
    Corrupt,
}

/// Verifies and decodes one on-disk entry. The trailing FNV-1a checksum
/// covers everything before it, so any bit flip or truncation — in the
/// header, the descriptor, or the payload — fails verification before a
/// single field is interpreted.
fn parse_entry<V: CacheValue>(bytes: &[u8], key: u64, descriptor: &str) -> EntryOutcome<V> {
    // Smallest well-formed entry: magic + key + empty descriptor + checksum.
    if bytes.len() < MAGIC.len() + 8 + 4 + 8 {
        return EntryOutcome::Corrupt;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a_64(body) != stored {
        return EntryOutcome::Corrupt;
    }
    let mut r = Reader::new(body);
    match r.take(MAGIC.len()) {
        Some(m) if m == MAGIC => {}
        _ => return EntryOutcome::Corrupt,
    }
    match r.get_u64() {
        Some(k) if k == key => {}
        Some(_) => return EntryOutcome::Foreign,
        None => return EntryOutcome::Corrupt,
    }
    match r.get_str() {
        Some(d) if d == descriptor => {}
        Some(_) => return EntryOutcome::Foreign,
        None => return EntryOutcome::Corrupt,
    }
    match V::decode(&mut r) {
        Some(v) => EntryOutcome::Value(v),
        None => EntryOutcome::Corrupt,
    }
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.cell"))
}

fn quarantine_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.cell.corrupt"))
}

/// The first unused quarantine name for `key`: `.corrupt`, then
/// `.corrupt.1`, `.corrupt.2`, … so earlier evidence survives repeated
/// quarantines of the same entry.
fn quarantine_dest(dir: &Path, key: u64) -> PathBuf {
    let base = quarantine_path(dir, key);
    if !base.exists() {
        return base;
    }
    for n in 1u32.. {
        let candidate = dir.join(format!("{key:016x}.cell.corrupt.{n}"));
        if !candidate.exists() {
            return candidate;
        }
    }
    base
}

/// Every `*.cell` entry in `dir` as `(key, bytes)`, ascending by key —
/// the stable scan order the eviction policy's determinism rests on.
fn scan_cells(dir: &Path) -> Vec<(u64, u64)> {
    let mut cells = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(key) = parse_cell_key(name) {
                if let Ok(meta) = entry.metadata() {
                    cells.push((key, meta.len()));
                }
            }
        }
    }
    cells.sort_unstable();
    cells
}

/// The key of a canonical `{key:016x}.cell` file name; `None` for
/// everything else (tmp files, quarantine evidence, leases, strangers).
fn parse_cell_key(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".cell")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The writer pid embedded in a `{key}.{pid}[...].tmp` file name (both the
/// current `{key}.{pid}.{instance}.{seq}.tmp` form and the legacy
/// `{key}.{pid}.tmp` form).
fn parse_tmp_pid(name: &str) -> Option<u32> {
    let stem = name.strip_suffix(".tmp")?;
    let mut parts = stem.split('.');
    let _key = parts.next()?;
    parts.next()?.parse().ok()
}

/// The pid embedded in a `lease.{pid}.{instance}` file name.
fn parse_lease_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("lease.")?;
    rest.split('.').next()?.parse().ok()
}

/// Whether `pid` is currently alive; `None` when the platform cannot say
/// (reaping then stays conservative and keeps the file).
#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> Option<bool> {
    Some(Path::new("/proc").join(pid.to_string()).exists())
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> Option<bool> {
    None
}

/// Removes `.tmp` files (and leases) left by provably dead writers: a
/// writer that died between `fs::write` and `fs::rename` would otherwise
/// leak its tmp file forever. A tmp survives when its pid is this process,
/// holds a live lease, or is alive (or of unknown liveness) — reaping
/// never races a writer that might still rename. Returns tmps removed.
fn reap_stale_tmp(dir: &Path) -> u64 {
    let me = std::process::id();
    let mut leases: Vec<(PathBuf, u32)> = Vec::new();
    let mut tmps: Vec<(PathBuf, u32)> = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(pid) = parse_lease_pid(name) {
            leases.push((entry.path(), pid));
        } else if let Some(pid) = parse_tmp_pid(name) {
            tmps.push((entry.path(), pid));
        }
    }
    let mut leased: HashSet<u32> = HashSet::new();
    for (path, pid) in leases {
        if pid != me && pid_alive(pid) == Some(false) {
            let _ = fs::remove_file(path);
        } else {
            leased.insert(pid);
        }
    }
    let mut reaped = 0;
    for (path, pid) in tmps {
        if pid == me || leased.contains(&pid) {
            continue;
        }
        if pid_alive(pid) == Some(false) && fs::remove_file(&path).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheValue for (u64, f64) {
        fn encode(&self, w: &mut Writer) {
            w.put_u64(self.0);
            w.put_f64(self.1);
        }
        fn decode(r: &mut Reader<'_>) -> Option<Self> {
            Some((r.get_u64()?, r.get_f64()?))
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("olab-grid-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn codec_round_trips_all_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(1234);
        w.put_u64(u64::MAX);
        w.put_f64(-0.125);
        w.put_str("sweep cell");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32(), Some(1234));
        assert_eq!(r.get_u64(), Some(u64::MAX));
        assert_eq!(r.get_f64(), Some(-0.125));
        assert_eq!(r.get_str().as_deref(), Some("sweep cell"));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_payload_reads_as_none() {
        let mut w = Writer::new();
        w.put_str("only half of a string survi");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 3]);
        assert_eq!(r.get_str(), None);
    }

    #[test]
    fn memory_tier_hits_and_counts() {
        let cache: ResultCache<(u64, f64)> = ResultCache::in_memory();
        assert!(cache.lookup("cell a").is_none());
        cache.insert("cell a", (1, 2.0));
        assert_eq!(cache.lookup("cell a"), Some(((1, 2.0), CacheTier::Memory)));
        let c = cache.counters();
        assert_eq!((c.memory_hits, c.misses, c.stores), (1, 1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = temp_dir("disk");
        {
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            cache.insert("persisted", (42, 0.5));
        }
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(
            cache.lookup("persisted"),
            Some(((42, 0.5), CacheTier::Disk))
        );
        // Promoted: the second lookup is a memory hit.
        assert_eq!(
            cache.lookup("persisted"),
            Some(((42, 0.5), CacheTier::Memory))
        );
        let c = cache.counters();
        assert_eq!((c.disk_hits, c.memory_hits), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_foreign_files_are_quarantined_not_served() {
        let dir = temp_dir("corrupt");
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        cache.insert("victim", (9, 9.0));
        let key = ResultCache::<(u64, f64)>::key_of("victim");
        let path = entry_path(&dir, key);
        fs::write(&path, b"not a cache file at all").unwrap();

        let fresh: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.lookup("victim").is_none());
        assert_eq!(fresh.counters().quarantined, 1);
        assert!(!path.exists(), "squatter moved aside");
        assert!(quarantine_path(&dir, key).exists(), "evidence kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_single_bit_flip_quarantines_the_entry_and_a_recompute_heals_it() {
        let dir = temp_dir("bitflip");
        let key = ResultCache::<(u64, f64)>::key_of("flipped");
        let path = entry_path(&dir, key);
        {
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            cache.insert("flipped", (123, 0.25));
        }
        // Flip one bit in the value payload (past magic+key+descriptor).
        let mut bytes = fs::read(&path).unwrap();
        let payload_at = bytes.len() - 12;
        bytes[payload_at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert!(
            cache.lookup("flipped").is_none(),
            "a flipped bit must never decode into a wrong answer"
        );
        assert_eq!(cache.counters().quarantined, 1);
        assert!(quarantine_path(&dir, key).exists());
        assert!(!path.exists());

        // The recompute path: insert rewrites the entry, lookups hit again.
        cache.insert("flipped", (123, 0.25));
        assert!(path.exists(), "healed entry re-lands on the canonical name");
        let fresh: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(
            fresh.lookup("flipped"),
            Some(((123, 0.25), CacheTier::Disk))
        );
        assert_eq!(fresh.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_quarantined_at_any_cut_point() {
        let dir = temp_dir("truncate");
        let key = ResultCache::<(u64, f64)>::key_of("cut");
        let path = entry_path(&dir, key);
        {
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            cache.insert("cut", (7, -1.5));
        }
        let full = fs::read(&path).unwrap();
        for cut in [1, MAGIC.len(), full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            assert!(cache.lookup("cut").is_none(), "cut at {cut} must miss");
            assert_eq!(cache.counters().quarantined, 1, "cut at {cut}");
            let _ = fs::remove_file(quarantine_path(&dir, key));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A pid guaranteed dead right now (Linux: absent from `/proc`).
    #[cfg(target_os = "linux")]
    fn dead_pid() -> u32 {
        (400_000..500_000)
            .find(|p| !Path::new("/proc").join(p.to_string()).exists())
            .expect("some pid in 400k..500k is unused")
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_tmp_files_from_dead_writers_are_reaped_at_open() {
        let dir = temp_dir("reap");
        fs::create_dir_all(&dir).unwrap();
        let dead = dead_pid();
        // A dead writer's leak (legacy name), a dead writer's leak (current
        // name), plus its stale lease.
        let dead_legacy = dir.join(format!("{:016x}.{dead}.tmp", 1u64));
        let dead_current = dir.join(format!("{:016x}.{dead}.0.3.tmp", 2u64));
        let dead_lease = dir.join(format!("lease.{dead}.0"));
        // A live writer's in-flight tmp (pid 1 always lives) and our own.
        let live_tmp = dir.join(format!("{:016x}.1.tmp", 3u64));
        let own_tmp = dir.join(format!("{:016x}.{}.9.9.tmp", 4u64, std::process::id()));
        for p in [
            &dead_legacy,
            &dead_current,
            &dead_lease,
            &live_tmp,
            &own_tmp,
        ] {
            fs::write(p, b"junk").unwrap();
        }

        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(cache.counters().tmp_reaped, 2, "both dead leaks reaped");
        assert!(!dead_legacy.exists() && !dead_current.exists());
        assert!(!dead_lease.exists(), "stale lease removed with its owner");
        assert!(live_tmp.exists(), "a live writer's tmp must survive");
        assert!(own_tmp.exists(), "our own in-flight tmp must survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leases_are_dropped_with_the_instance_and_protect_tmp_files() {
        let dir = temp_dir("lease");
        let lease = {
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            cache.insert("held", (1, 1.0));
            let lease = fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .find(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("lease."))
                })
                .expect("an open cache holds a lease");
            assert!(lease.exists());
            lease
        };
        assert!(!lease.exists(), "drop removes the advisory lease");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantines_keep_every_piece_of_evidence() {
        let dir = temp_dir("requarantine");
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        let key = ResultCache::<(u64, f64)>::key_of("repeat offender");
        let path = entry_path(&dir, key);
        for round in 0..3u8 {
            cache.insert("repeat offender", (round as u64, 0.0));
            fs::write(&path, [b"rotten round ", &[b'0' + round][..]].concat()).unwrap();
            let fresh: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            assert!(fresh.lookup("repeat offender").is_none());
        }
        assert!(quarantine_path(&dir, key).exists());
        assert!(dir.join(format!("{key:016x}.cell.corrupt.1")).exists());
        assert!(dir.join(format!("{key:016x}.cell.corrupt.2")).exists());
        // Each quarantine kept its own round's bytes: no clobbering.
        let first = fs::read(quarantine_path(&dir, key)).unwrap();
        let third = fs::read(dir.join(format!("{key:016x}.cell.corrupt.2"))).unwrap();
        assert_ne!(first, third);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_byte_cap_evicts_cold_entries_first_in_key_order() {
        let dir = temp_dir("evict");
        {
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            for i in 0..10u64 {
                cache.insert(&format!("cold entry {i}"), (i, 0.0));
            }
        }
        // Reopen with a cap that keeps roughly half: every entry is cold
        // (nothing touched yet), so eviction is ascending-key order.
        let entry_bytes = scan_cells(&dir)[0].1;
        let cap = entry_bytes * 5;
        let mut cache: ResultCache<(u64, f64)> = ResultCache::with_disk_capped(&dir, cap).unwrap();
        assert_eq!(cache.counters().evicted, 5);
        let kept = scan_cells(&dir);
        assert_eq!(kept.len(), 5);
        let mut all_keys: Vec<u64> = (0..10u64)
            .map(|i| ResultCache::<(u64, f64)>::key_of(&format!("cold entry {i}")))
            .collect();
        all_keys.sort_unstable();
        let expect: Vec<u64> = all_keys[5..].to_vec();
        assert_eq!(
            kept.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            expect,
            "the five smallest keys go first"
        );
        // Touched (hot) entries outlive cold ones at the next enforcement.
        let survivor = (0..10u64)
            .map(|i| format!("cold entry {i}"))
            .find(|d| ResultCache::<(u64, f64)>::key_of(d) == expect[0])
            .unwrap();
        assert!(cache.lookup(&survivor).is_some(), "promoted to hot");
        cache.set_disk_cap(Some(entry_bytes));
        let kept_now = scan_cells(&dir);
        assert_eq!(kept_now.len(), 1);
        assert_eq!(kept_now[0].0, expect[0], "the hot entry survived");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_larger_than_the_cap_is_denied_disk_admission() {
        let dir = temp_dir("admission");
        // One (u64, f64) entry encodes to well over 30 bytes with magic,
        // key, descriptor, and checksum; a 30-byte cap admits nothing.
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk_capped(&dir, 30).unwrap();
        cache.insert("too big to ever fit", (1, 1.0));
        assert!(scan_cells(&dir).is_empty(), "never reached the disk");
        assert_eq!(cache.counters().admission_rejected, 1);
        assert_eq!(cache.counters().evicted, 0, "rejected, not evicted");
        assert!(!cache.is_degraded(), "admission denial is not a failure");
        // The value still serves from memory.
        assert_eq!(
            cache.lookup("too big to ever fit"),
            Some(((1, 1.0), CacheTier::Memory))
        );
        // A roomy cap admits the same entry normally.
        let roomy: ResultCache<(u64, f64)> = ResultCache::with_disk_capped(&dir, 10_000).unwrap();
        roomy.insert("too big to ever fit", (1, 1.0));
        assert_eq!(scan_cells(&dir).len(), 1);
        assert_eq!(roomy.counters().admission_rejected, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_drops_cheap_entries_before_expensive_ones() {
        let dir = temp_dir("cost-evict");
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        let descriptors: Vec<String> = (0..6u64).map(|i| format!("costed cell {i}")).collect();
        let mut keys: Vec<u64> = descriptors
            .iter()
            .map(|d| ResultCache::<(u64, f64)>::key_of(d))
            .collect();
        keys.sort_unstable();
        // The two smallest keys get Expensive, the rest Cheap: pure
        // key-order eviction would drop the expensive pair first, the
        // cost-aware order must drop all four cheap entries instead.
        let expensive: HashSet<u64> = keys[..2].iter().copied().collect();
        for (i, d) in descriptors.iter().enumerate() {
            let cost = if expensive.contains(&ResultCache::<(u64, f64)>::key_of(d)) {
                CacheCost::Expensive
            } else {
                CacheCost::Cheap
            };
            cache.insert_with_cost(d, (i as u64, 0.0), cost);
        }
        let entry_bytes = scan_cells(&dir)[0].1;
        let mut cache = cache;
        cache.set_disk_cap(Some(entry_bytes * 2));
        assert_eq!(cache.counters().evicted, 4, "all four cheap cells go");
        let kept: Vec<u64> = scan_cells(&dir).iter().map(|&(k, _)| k).collect();
        assert_eq!(kept, keys[..2].to_vec(), "the expensive pair survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cost_aware_eviction_is_independent_of_insert_order() {
        // Same entries, same costs, opposite insertion orders: both
        // directories must keep exactly the same survivors — the eviction
        // point sees identical state regardless of scheduling.
        let descriptors: Vec<String> = (0..8u64).map(|i| format!("order cell {i}")).collect();
        let cost_of = |i: usize| match i % 3 {
            0 => CacheCost::Cheap,
            1 => CacheCost::Standard,
            _ => CacheCost::Expensive,
        };
        let mut survivors: Vec<Vec<u64>> = Vec::new();
        for (tag, reversed) in [("fwd", false), ("rev", true)] {
            let dir = temp_dir(&format!("cost-order-{tag}"));
            let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            let mut order: Vec<usize> = (0..descriptors.len()).collect();
            if reversed {
                order.reverse();
            }
            for i in order {
                cache.insert_with_cost(&descriptors[i], (i as u64, 0.0), cost_of(i));
            }
            let entry_bytes = scan_cells(&dir)[0].1;
            let mut cache = cache;
            cache.set_disk_cap(Some(entry_bytes * 3));
            survivors.push(scan_cells(&dir).iter().map(|&(k, _)| k).collect());
            let _ = fs::remove_dir_all(&dir);
        }
        assert_eq!(survivors[0], survivors[1]);
        assert_eq!(survivors[0].len(), 3);
    }

    #[test]
    fn injected_enospc_latches_memory_only_degradation() {
        let dir = temp_dir("enospc");
        let mut cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        cache.set_chaos(Some(crate::chaos::ChaosPlan {
            seed: 1,
            enospc_permille: 1000,
            ..Default::default()
        }));
        assert!(!cache.is_degraded());
        cache.insert("doomed write", (1, 1.0));
        assert!(cache.is_degraded(), "one ENOSPC latches degradation");
        // Memory still serves; disk holds nothing.
        assert_eq!(
            cache.lookup("doomed write"),
            Some(((1, 1.0), CacheTier::Memory))
        );
        assert!(scan_cells(&dir).is_empty());
        let health = cache.health();
        assert!(health.disk_enabled && health.degraded);
        assert!(health.degraded_reason.unwrap().contains("ENOSPC"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_torn_write_is_caught_never_served() {
        let dir = temp_dir("torn");
        {
            let mut cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
            cache.set_chaos(Some(crate::chaos::ChaosPlan {
                seed: 1,
                torn_write_permille: 1000,
                ..Default::default()
            }));
            cache.insert("torn", (7, 7.0));
        }
        let fresh: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.lookup("torn").is_none(), "half an entry is no entry");
        assert_eq!(fresh.counters().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_rename_failure_leaks_a_tmp_the_entry_never_lands() {
        let dir = temp_dir("renamefail");
        let mut cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        cache.set_chaos(Some(crate::chaos::ChaosPlan {
            seed: 1,
            rename_fail_permille: 1000,
            ..Default::default()
        }));
        cache.insert("never lands", (2, 2.0));
        let key = ResultCache::<(u64, f64)>::key_of("never lands");
        assert!(!entry_path(&dir, key).exists());
        let tmps = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(tmps, 1, "the tmp leaked, exactly as a dying writer would");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_reports_occupancy_and_cap() {
        let dir = temp_dir("health");
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk_capped(&dir, 10_000).unwrap();
        cache.insert("one", (1, 1.0));
        cache.insert("two", (2, 2.0));
        let health = cache.health();
        assert!(health.disk_enabled && !health.degraded);
        assert_eq!(health.disk_entries, 2);
        assert!(health.disk_bytes > 0);
        assert_eq!(health.max_disk_bytes, Some(10_000));
        let memory_only: ResultCache<(u64, f64)> = ResultCache::in_memory();
        assert_eq!(memory_only.health(), CacheHealth::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn descriptor_is_verified_not_just_the_digest() {
        // Simulate a digest collision by planting an entry whose file name
        // matches but whose descriptor differs: must miss.
        let dir = temp_dir("collide");
        let cache: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        cache.insert("original descriptor", (3, 1.5));
        let key = ResultCache::<(u64, f64)>::key_of("other descriptor");
        let orig = ResultCache::<(u64, f64)>::key_of("original descriptor");
        fs::rename(entry_path(&dir, orig), entry_path(&dir, key)).unwrap();

        let fresh: ResultCache<(u64, f64)> = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.lookup("other descriptor").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
