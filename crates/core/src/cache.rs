//! Deterministic trial-result cache.
//!
//! Trials are pure functions of their [`ExperimentSpec`] (the seed is a
//! spec field), so results can be memoized across scheduler runs and
//! watchdog iterations: repeated iterations over unchanged pairs skip
//! simulation entirely, and a killed run resumes where it left off when
//! the cache is persisted.
//!
//! Keys are a stable FNV-1a hash of the spec's canonical JSON encoding —
//! *not* `DefaultHasher`, whose output may change across Rust releases —
//! so persisted caches stay valid across builds. Any field change
//! (services, setting, durations, seed, external loss, …) changes the
//! JSON and therefore the key.

use crate::error::PrudentiaError;
use crate::experiment::{ExperimentResult, ExperimentSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the spec encoding that feeds [`trial_key`]. Bump whenever
/// the semantics of a persisted result change without the spec JSON
/// necessarily changing (new engine behaviour, changed accounting, …):
/// every key changes, so stale persisted caches are invalidated wholesale
/// instead of silently serving results computed under old semantics.
///
/// Version history:
/// * 1 — original pipeline (implicit; keys were FNV of the JSON alone).
/// * 2 — scenario subsystem: settings carry a qdisc + impairment spec.
pub const SPEC_SCHEMA_VERSION: u32 = 2;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold bytes into an FNV-1a state.
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable cache key for one trial: FNV-1a of [`SPEC_SCHEMA_VERSION`]
/// followed by the spec's canonical JSON.
///
/// Serde derives emit fields in declaration order and the vendored
/// writer emits no whitespace, so the encoding — and the key — is
/// deterministic across runs, platforms, and Rust versions.
pub fn trial_key(spec: &ExperimentSpec) -> u64 {
    let json = serde_json::to_string(spec).expect("ExperimentSpec serializes");
    versioned_fnv(SPEC_SCHEMA_VERSION, json.as_bytes())
}

/// FNV-1a of a little-endian schema version followed by `bytes` — the
/// fingerprint primitive shared by [`trial_key`] and campaign cell
/// fingerprints ([`crate::campaign`]), so every durable identity in the
/// system invalidates the same way: bump the version, every key moves.
pub fn versioned_fnv(version: u32, bytes: &[u8]) -> u64 {
    let h = fnv1a_update(FNV_OFFSET, &version.to_le_bytes());
    fnv1a_update(h, bytes)
}

/// One persisted cache entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The trial key ([`trial_key`] of the spec).
    pub key: u64,
    /// The memoized result.
    pub result: ExperimentResult,
}

/// On-disk snapshot: one JSON document of every cached trial.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
struct CacheSnapshot {
    entries: Vec<CacheEntry>,
}

/// A thread-safe memo table of trial results.
#[derive(Debug, Default)]
pub struct TrialCache {
    entries: Mutex<HashMap<u64, ExperimentResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TrialCache {
    /// An empty cache.
    pub fn new() -> Self {
        TrialCache::default()
    }

    /// Load a cache persisted with [`TrialCache::save`]. A missing file
    /// yields an empty cache (first run / cold start); malformed JSON is
    /// an error.
    pub fn load(path: &Path) -> Result<Self, PrudentiaError> {
        let cache = TrialCache::new();
        match std::fs::read_to_string(path) {
            Ok(data) => {
                let snap: CacheSnapshot =
                    serde_json::from_str(&data).map_err(|e| PrudentiaError::Json {
                        context: format!("trial cache {}", path.display()),
                        detail: e.to_string(),
                    })?;
                let mut map = cache.entries.lock().expect("poisoned");
                for e in snap.entries {
                    map.insert(e.key, e.result);
                }
                drop(map);
                Ok(cache)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(cache),
            Err(e) => Err(PrudentiaError::io(
                format!("trial cache {}", path.display()),
                e,
            )),
        }
    }

    /// Persist as JSON, entries sorted by key for reproducible files.
    pub fn save(&self, path: &Path) -> Result<(), PrudentiaError> {
        let map = self.entries.lock().expect("poisoned");
        let mut entries: Vec<CacheEntry> = map
            .iter()
            .map(|(k, v)| CacheEntry {
                key: *k,
                result: v.clone(),
            })
            .collect();
        drop(map);
        entries.sort_by_key(|e| e.key);
        let json = serde_json::to_string(&CacheSnapshot { entries }).map_err(|e| {
            PrudentiaError::Json {
                context: format!("trial cache {}", path.display()),
                detail: e.to_string(),
            }
        })?;
        let write_ctx = || format!("trial cache {}", path.display());
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| PrudentiaError::io(write_ctx(), e))?;
            }
        }
        std::fs::write(path, json).map_err(|e| PrudentiaError::io(write_ctx(), e))
    }

    /// Look up a trial, counting the hit or miss.
    pub fn lookup(&self, key: u64) -> Option<ExperimentResult> {
        let found = self.entries.lock().expect("poisoned").get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoize a freshly computed trial.
    pub fn insert(&self, key: u64, result: ExperimentResult) {
        self.entries.lock().expect("poisoned").insert(key, result);
    }

    /// Number of memoized trials.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from memory since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from memory (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkSetting;
    use crate::runner::run_experiment;
    use prudentia_apps::Service;
    use prudentia_sim::SimDuration;

    fn spec(seed: u64) -> ExperimentSpec {
        ExperimentSpec::quick(
            Service::IperfCubic.spec(),
            Service::IperfReno.spec(),
            NetworkSetting::highly_constrained(),
            seed,
        )
    }

    #[test]
    fn same_spec_same_key() {
        assert_eq!(trial_key(&spec(7)), trial_key(&spec(7)));
    }

    #[test]
    fn every_field_feeds_the_key() {
        let base = trial_key(&spec(7));

        assert_ne!(trial_key(&spec(8)), base, "seed must change the key");

        let mut s = spec(7);
        s.setting = NetworkSetting::moderately_constrained();
        assert_ne!(trial_key(&s), base, "setting must change the key");

        let mut s = spec(7);
        s.duration = SimDuration::from_secs(240);
        assert_ne!(trial_key(&s), base, "duration must change the key");

        let mut s = spec(7);
        s.warmup = SimDuration::from_secs(31);
        assert_ne!(trial_key(&s), base, "warmup must change the key");

        let mut s = spec(7);
        s.cooldown = SimDuration::from_secs(31);
        assert_ne!(trial_key(&s), base, "cooldown must change the key");

        let mut s = spec(7);
        s.external_loss = 0.001;
        assert_ne!(trial_key(&s), base, "external loss must change the key");

        let mut s = spec(7);
        s.contender = Service::IperfReno.spec();
        assert_ne!(trial_key(&s), base, "contender must change the key");

        let mut s = spec(7);
        s.incumbent = Service::IperfCubic.spec();
        assert_ne!(trial_key(&s), base, "incumbent must change the key");

        let mut s = spec(7);
        s.record_series = true;
        assert_ne!(trial_key(&s), base, "record_series must change the key");
    }

    #[test]
    fn schema_version_feeds_the_key() {
        // The key must differ from a plain FNV of the JSON (version 1's
        // scheme), so bumping SPEC_SCHEMA_VERSION invalidates old caches.
        let s = spec(7);
        let json = serde_json::to_string(&s).unwrap();
        let unversioned = fnv1a_update(FNV_OFFSET, json.as_bytes());
        assert_ne!(trial_key(&s), unversioned);
    }

    #[test]
    fn scenario_feeds_the_key() {
        use prudentia_sim::{QdiscSpec, ScenarioSpec};
        let base = trial_key(&spec(7));
        let mut s = spec(7);
        s.setting.scenario = ScenarioSpec {
            qdisc: QdiscSpec::codel(),
            ..ScenarioSpec::default()
        };
        assert_ne!(trial_key(&s), base, "qdisc must change the key");
        let mut s = spec(7);
        s.setting.scenario = ScenarioSpec::droptail_lte(s.setting.rate_bps);
        assert_ne!(trial_key(&s), base, "impairment must change the key");
    }

    #[test]
    fn swapping_sides_changes_the_key() {
        let ab = ExperimentSpec::quick(
            Service::IperfCubic.spec(),
            Service::IperfReno.spec(),
            NetworkSetting::highly_constrained(),
            7,
        );
        let ba = ExperimentSpec::quick(
            Service::IperfReno.spec(),
            Service::IperfCubic.spec(),
            NetworkSetting::highly_constrained(),
            7,
        );
        assert_ne!(trial_key(&ab), trial_key(&ba));
    }

    #[test]
    fn cache_round_trip_reproduces_result_exactly() {
        let mut s = spec(5);
        // Shrink so the test is quick; key covers the shrunken fields too.
        s.duration = SimDuration::from_secs(20);
        s.warmup = SimDuration::from_secs(4);
        s.cooldown = SimDuration::from_secs(4);
        let result = run_experiment(&s);
        let key = trial_key(&s);

        let cache = TrialCache::new();
        cache.insert(key, result.clone());

        let dir = std::env::temp_dir().join("prudentia_cache_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trials.json");
        cache.save(&path).expect("save");

        let reloaded = TrialCache::load(&path).expect("load");
        let back = reloaded.lookup(key).expect("entry survives round-trip");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "JSON round-trip must reproduce the result byte-for-byte"
        );
        assert_eq!(reloaded.hits(), 1);
        assert_eq!(reloaded.hit_rate(), 1.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_cache_file_is_cold_start() {
        let cache =
            TrialCache::load(Path::new("/nonexistent/prudentia/cache.json")).expect("cold start");
        assert!(cache.is_empty());
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hit_rate(), 0.0);
    }
}
