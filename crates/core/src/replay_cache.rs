//! A content-addressed, cross-run cache of datagen replay results.
//!
//! Every phase-2 datagen job — replaying one breakpoint interval at one
//! candidate operating point — is a pure function of the GPU configuration,
//! the datagen parameters, the workload, the breakpoint index and the
//! operating point. The [`ReplayCache`] exploits that: it keys each job's
//! [`RawSample`]s by a stable fingerprint of those five inputs, so a rerun
//! of the same sweep (an `ablation_suite` iteration, a `granularity_sweep`
//! repeat, a resumed experiment on a fresh machine) loads the samples
//! instead of simulating the replay again.
//!
//! The fingerprint is a 64-bit FNV-1a hash over the inputs' serialized
//! [`Value`](serde::Value) trees — *not* Rust's `DefaultHasher`, whose
//! per-process random seed would make keys useless across runs. Object keys
//! are already sorted (the vendored serde stores objects as `BTreeMap`s),
//! so the hash is deterministic for equal inputs on any machine.
//!
//! Hits and misses are surfaced through the obs counters
//! `sim.cache_hits` / `sim.cache_misses`, which the CLI's `inspect`
//! subcommand summarizes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize, Value};

use crate::datagen::RawSample;
use crate::error::{Artifact, SsmdvfsError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds a serialized value tree into the hash. Every node contributes a
/// type tag byte so e.g. `0` and `"0"` and `[0]` hash differently; floats
/// contribute their exact bit pattern.
fn hash_value(hash: &mut u64, value: &Value) {
    match value {
        Value::Null => fnv1a(hash, b"n"),
        Value::Bool(b) => fnv1a(hash, if *b { b"t" } else { b"f" }),
        Value::Number(n) => {
            use serde::Number;
            match n {
                Number::U(v) => {
                    fnv1a(hash, b"u");
                    fnv1a(hash, &v.to_le_bytes());
                }
                Number::I(v) => {
                    fnv1a(hash, b"i");
                    fnv1a(hash, &v.to_le_bytes());
                }
                Number::F(v) => {
                    fnv1a(hash, b"d");
                    fnv1a(hash, &v.to_bits().to_le_bytes());
                }
            }
        }
        Value::String(s) => {
            fnv1a(hash, b"s");
            fnv1a(hash, &(s.len() as u64).to_le_bytes());
            fnv1a(hash, s.as_bytes());
        }
        Value::Array(items) => {
            fnv1a(hash, b"a");
            fnv1a(hash, &(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(hash, item);
            }
        }
        Value::Object(map) => {
            fnv1a(hash, b"o");
            fnv1a(hash, &(map.len() as u64).to_le_bytes());
            for (k, v) in map {
                fnv1a(hash, &(k.len() as u64).to_le_bytes());
                fnv1a(hash, k.as_bytes());
                hash_value(hash, v);
            }
        }
    }
}

/// A process- and machine-stable 64-bit fingerprint of any serializable
/// value. Equal serialized trees always produce equal fingerprints — unlike
/// `std::hash`, whose `DefaultHasher` is seeded per process.
///
/// # Examples
///
/// ```
/// use gpu_sim::GpuConfig;
///
/// let a = ssmdvfs::fingerprint(&GpuConfig::small_test());
/// let b = ssmdvfs::fingerprint(&GpuConfig::small_test());
/// assert_eq!(a, b);
/// assert_ne!(a, ssmdvfs::fingerprint(&GpuConfig::titan_x()));
/// ```
pub fn fingerprint<T: Serialize>(value: &T) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_value(&mut hash, &value.serialize());
    hash
}

/// The serialized form of the cache file.
#[derive(Debug, Default, Serialize, Deserialize)]
struct CacheFile {
    /// Format version, bumped if the key derivation or sample schema
    /// changes incompatibly.
    version: u32,
    /// Replay results keyed by [`ReplayCache::key`] strings. A `BTreeMap`
    /// keeps the on-disk order (and thus the file bytes) deterministic.
    entries: BTreeMap<String, Vec<RawSample>>,
}

const CACHE_VERSION: u32 = 1;

/// A thread-safe, content-addressed store of replay results that persists
/// across runs. See the module docs for the keying scheme.
#[derive(Debug, Default)]
pub struct ReplayCache {
    path: Option<PathBuf>,
    entries: Mutex<BTreeMap<String, Vec<RawSample>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReplayCache {
    /// An empty in-memory cache (no backing file; [`ReplayCache::save`] is
    /// a no-op).
    pub fn in_memory() -> ReplayCache {
        ReplayCache::default()
    }

    /// Opens the cache at `path`, loading any existing entries. A missing
    /// file (or one written by an incompatible cache version) yields an
    /// empty cache bound to that path.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the file exists but cannot be read,
    /// or [`SsmdvfsError::Parse`] if it is not valid cache JSON.
    pub fn open(path: impl AsRef<Path>) -> Result<ReplayCache, SsmdvfsError> {
        let path = path.as_ref().to_path_buf();
        let entries = if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| SsmdvfsError::read(Artifact::ReplayCache, &path, e))?;
            let file: CacheFile = serde_json::from_str(&text)
                .map_err(|e| SsmdvfsError::parse(Artifact::ReplayCache, &path, e))?;
            if file.version == CACHE_VERSION {
                file.entries
            } else {
                BTreeMap::new()
            }
        } else {
            BTreeMap::new()
        };
        Ok(ReplayCache {
            path: Some(path),
            entries: Mutex::new(entries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Derives the key for one replay job. `config_hash`, `dg_hash` and
    /// `workload_hash` come from [`fingerprint`]; `breakpoint` and
    /// `op_index` identify the job within the sweep.
    pub fn key(
        config_hash: u64,
        dg_hash: u64,
        workload_hash: u64,
        breakpoint: usize,
        op_index: usize,
    ) -> String {
        format!("{config_hash:016x}-{dg_hash:016x}-{workload_hash:016x}-b{breakpoint}-op{op_index}")
    }

    /// Looks up a replay's samples, counting a hit or miss (both locally
    /// and on the obs counters `sim.cache_hits`/`sim.cache_misses`).
    pub fn get(&self, key: &str) -> Option<Vec<RawSample>> {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match entries.get(key) {
            Some(samples) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::counter!("sim.cache_hits").inc(1);
                Some(samples.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::counter!("sim.cache_misses").inc(1);
                None
            }
        }
    }

    /// Stores a replay's samples under `key`.
    pub fn insert(&self, key: String, samples: Vec<RawSample>) {
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.insert(key, samples);
    }

    /// Number of cached replays.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits recorded since this cache was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses recorded since this cache was opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Writes the cache back to its backing file (no-op for an in-memory
    /// cache). The output is deterministic: entries are written in sorted
    /// key order, so two caches with equal contents produce equal bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the write fails.
    pub fn save(&self) -> Result<(), SsmdvfsError> {
        let Some(path) = &self.path else { return Ok(()) };
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let file = CacheFile { version: CACHE_VERSION, entries: entries.clone() };
        drop(entries);
        let text = serde_json::to_string_pretty(&file)
            .map_err(|e| SsmdvfsError::parse(Artifact::ReplayCache, path, e))?;
        std::fs::write(path, text).map_err(|e| SsmdvfsError::write(Artifact::ReplayCache, path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{EpochCounters, GpuConfig};

    fn sample(op: usize) -> RawSample {
        RawSample {
            benchmark: "b".to_string(),
            cluster: 0,
            breakpoint: 1,
            counters: EpochCounters::zeroed(),
            scaled_counters: EpochCounters::zeroed(),
            op_index: op,
            perf_loss: 0.25,
            instructions: 42,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let cfg = GpuConfig::small_test();
        assert_eq!(fingerprint(&cfg), fingerprint(&cfg.clone()));
        assert_ne!(fingerprint(&GpuConfig::small_test()), fingerprint(&GpuConfig::titan_x()));
        // Different shapes that could collide under naive hashing.
        assert_ne!(fingerprint(&0u64), fingerprint(&"0".to_string()));
        assert_ne!(fingerprint(&vec![1u64]), fingerprint(&vec![1u64, 1u64]));
        let mut seed_changed = GpuConfig::small_test();
        seed_changed.seed ^= 1;
        assert_ne!(fingerprint(&GpuConfig::small_test()), fingerprint(&seed_changed));
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = ReplayCache::in_memory();
        let key = ReplayCache::key(1, 2, 3, 4, 5);
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key.clone(), vec![sample(5)]);
        let got = cache.get(&key).expect("inserted");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].op_index, 5);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn roundtrips_through_disk_with_deterministic_bytes() {
        let dir =
            std::env::temp_dir().join(format!("ssmdvfs-replay-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = std::fs::remove_file(&path);

        let cache = ReplayCache::open(&path).expect("missing file yields empty cache");
        assert!(cache.is_empty());
        cache.insert(ReplayCache::key(9, 8, 7, 0, 1), vec![sample(1), sample(2)]);
        cache.insert(ReplayCache::key(9, 8, 7, 1, 0), vec![sample(0)]);
        cache.save().expect("save");
        let bytes_a = std::fs::read(&path).unwrap();

        let reloaded = ReplayCache::open(&path).expect("reload");
        assert_eq!(reloaded.len(), 2);
        let got = reloaded.get(&ReplayCache::key(9, 8, 7, 0, 1)).expect("hit");
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].op_index, 2);
        reloaded.save().expect("resave");
        let bytes_b = std::fs::read(&path).unwrap();
        assert_eq!(bytes_a, bytes_b, "save must be byte-deterministic");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn incompatible_version_is_ignored() {
        let dir =
            std::env::temp_dir().join(format!("ssmdvfs-replay-cache-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, r#"{"version": 999, "entries": {}}"#).unwrap();
        let cache = ReplayCache::open(&path).expect("open");
        assert!(cache.is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
