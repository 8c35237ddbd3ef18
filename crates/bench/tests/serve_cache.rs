//! Cache-correctness sweeps for the `cobra-serve` warm-state store.
//!
//! The cache must be a pure accelerator: an identity mismatch must never
//! return a cached report, a tier-2 partial restore must reproduce the
//! straight-through run byte for byte, and a poisoned entry — truncated
//! at any length, or with any single bit flipped — must degrade to a
//! cold run, never a wrong answer. The poisoning sweeps reuse the
//! exhaustive every-byte harness pattern from `cbs_roundtrip.rs`,
//! driven through the real `WarmCache::lookup_result` path.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use cobra_bench::serve::cache::WarmCache;
use cobra_bench::serve::exec::{execute_job, warmup_for, CacheDisposition};
use cobra_bench::serve::protocol::report_json;
use cobra_bench::{workload_by_name, RunSpec};
use cobra_core::composer::Design;
use cobra_uarch::{config_hash, CbrMeta, CoreConfig};

const INSTS: u64 = 5_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-servecache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn design() -> Design {
    cobra_core::designs::b2()
}

fn meta_for(design: &Design, cfg: &CoreConfig, workload: &str, insts: u64) -> CbrMeta {
    CbrMeta {
        design: design.name.clone(),
        topology: design.topology.clone(),
        config_hash: config_hash(design, cfg),
        workload: workload.to_string(),
        insts,
        warmup_insts: warmup_for(insts),
    }
}

/// Runs one job through the cache and returns `(report, disposition)`.
fn run(cache: &WarmCache, insts: u64) -> (cobra_uarch::PerfReport, CacheDisposition) {
    let d = design();
    let spec = workload_by_name("gcc").unwrap();
    let o = execute_job(
        RunSpec::new(&d, CoreConfig::boom_4wide(), &spec, insts),
        Some(cache),
    );
    (o.report, o.cache)
}

#[test]
fn store_then_lookup_round_trips_and_repeats_hit() {
    let dir = scratch("roundtrip");
    let cache = WarmCache::open(&dir).unwrap();
    let (first, d1) = run(&cache, INSTS);
    assert_eq!(d1, CacheDisposition::Miss);
    // Result + warmup checkpoint were persisted.
    assert_eq!(cache.stats.stores.load(Ordering::Relaxed), 2);
    let (second, d2) = run(&cache, INSTS);
    assert_eq!(d2, CacheDisposition::Hit);
    assert_eq!(second, first, "tier-1 hit returns the identical report");
    assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tier2_partial_restore_is_byte_exact() {
    let dir = scratch("tier2");
    let cache = WarmCache::open(&dir).unwrap();
    // Seed with a short job: stores a checkpoint at warmup_for(INSTS).
    let (_, d1) = run(&cache, INSTS);
    assert_eq!(d1, CacheDisposition::Miss);
    // A longer job over the same design/workload restores that earlier
    // boundary and simulates only the remainder…
    let (warm, d2) = run(&cache, INSTS * 3);
    assert_eq!(d2, CacheDisposition::Warm);
    assert_eq!(cache.stats.warm.load(Ordering::Relaxed), 1);
    // …and must equal the straight-through run exactly.
    let d = design();
    let spec = workload_by_name("gcc").unwrap();
    let direct = execute_job(
        RunSpec::new(&d, CoreConfig::boom_4wide(), &spec, INSTS * 3),
        None,
    );
    assert_eq!(direct.cache, CacheDisposition::Miss);
    assert_eq!(warm, direct.report, "tier-2 restore vs straight-through");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identity_mismatch_never_hits() {
    let dir = scratch("identity");
    let cache = WarmCache::open(&dir).unwrap();
    let (_, d1) = run(&cache, INSTS);
    assert_eq!(d1, CacheDisposition::Miss);
    let cfg = CoreConfig::boom_4wide();
    let d = design();
    let stored = meta_for(&d, &cfg, "gcc", INSTS);
    assert!(cache.lookup_result(&stored).is_some(), "sanity: exact hit");

    // Same design, different measured region: distinct identity.
    assert!(cache
        .lookup_result(&meta_for(&d, &cfg, "gcc", INSTS + 1))
        .is_none());
    // Same design, different workload.
    assert!(cache
        .lookup_result(&meta_for(&d, &cfg, "xz", INSTS))
        .is_none());
    // Different design altogether.
    let other = cobra_core::designs::tage_l();
    assert!(cache
        .lookup_result(&meta_for(&other, &cfg, "gcc", INSTS))
        .is_none());
    // Same everything but a different configuration hash: the entry is
    // *found on disk* (the path only encodes hash/workload/insts, and we
    // force the stored hash into the name) — the header identity check
    // must still refuse it.
    let mut forged = stored.clone();
    forged.design = "Forged".into();
    let before = cache.stats.rejected.load(Ordering::Relaxed);
    assert!(cache.lookup_result(&forged).is_none());
    assert_eq!(
        cache.stats.rejected.load(Ordering::Relaxed),
        before + 1,
        "an on-disk entry with mismatched identity is rejected, not missed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Locates the single `.cbr` file a seeded cache holds.
fn the_result_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1);
    files.remove(0)
}

#[test]
fn truncated_entries_are_rejected_at_every_length() {
    let dir = scratch("truncate");
    let cache = WarmCache::open(&dir).unwrap();
    let (_, _) = run(&cache, INSTS);
    let path = the_result_file(&dir);
    let full = std::fs::read(&path).unwrap();
    let meta = meta_for(&design(), &CoreConfig::boom_4wide(), "gcc", INSTS);
    assert!(
        cache.lookup_result(&meta).is_some(),
        "sanity: intact entry hits"
    );
    for len in 0..full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        assert!(
            cache.lookup_result(&meta).is_none(),
            "truncation to {len} of {} bytes must not hit",
            full.len()
        );
    }
    std::fs::write(&path, &full).unwrap();
    assert!(
        cache.lookup_result(&meta).is_some(),
        "restored entry hits again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entries_are_rejected_at_every_byte() {
    let dir = scratch("bitflip");
    let cache = WarmCache::open(&dir).unwrap();
    let (_, _) = run(&cache, INSTS);
    let path = the_result_file(&dir);
    let full = std::fs::read(&path).unwrap();
    let meta = meta_for(&design(), &CoreConfig::boom_4wide(), "gcc", INSTS);
    for i in 0..full.len() {
        let mut poisoned = full.clone();
        poisoned[i] ^= 0x01;
        std::fs::write(&path, &poisoned).unwrap();
        assert!(
            cache.lookup_result(&meta).is_none(),
            "bit flip at byte {i} of {} must not hit",
            full.len()
        );
    }
    assert_eq!(
        cache.stats.rejected.load(Ordering::Relaxed),
        full.len() as u64,
        "every poisoned lookup is counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tier-2 corruption is counted like tier-1 corruption: a stored `.cbs`
/// cut inside its header is rejected (not silently skipped), and the job
/// degrades to a cold run whose report is byte-identical to a direct run.
#[test]
fn checkpoint_with_corrupt_header_is_counted_as_rejected() {
    let dir = scratch("ckpt-header");
    let cache = WarmCache::open(&dir).unwrap();
    let (_, d1) = run(&cache, INSTS);
    assert_eq!(d1, CacheDisposition::Miss);
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(dir.join("ckpt"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(ckpts.len(), 1);
    let ckpt = ckpts.remove(0);
    let full = std::fs::read(&ckpt).unwrap();
    // 20 bytes: past the 12-byte prefix, inside the design/topology names.
    std::fs::write(&ckpt, &full[..20]).unwrap();

    let before = cache.stats.rejected.load(Ordering::Relaxed);
    let (report, d2) = run(&cache, INSTS * 3);
    assert_eq!(
        d2,
        CacheDisposition::Miss,
        "a damaged checkpoint never warms"
    );
    assert!(
        cache.stats.rejected.load(Ordering::Relaxed) > before,
        "the header-invalid checkpoint is counted in stats.rejected"
    );
    let d = design();
    let spec = workload_by_name("gcc").unwrap();
    let direct = execute_job(
        RunSpec::new(&d, CoreConfig::boom_4wide(), &spec, INSTS * 3),
        None,
    );
    assert_eq!(report_json(&report), report_json(&direct.report));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A raw-topology job names its design after the topology text, so the
/// text can exceed the containers' 4096-byte string cap. Such an entry is
/// refused at write time instead of being stored and rejected forever.
#[test]
fn oversized_identity_is_never_stored() {
    let dir = scratch("oversized");
    let cache = WarmCache::open(&dir).unwrap();
    let d = design();
    let spec = workload_by_name("gcc").unwrap();
    let direct = execute_job(
        RunSpec::new(&d, CoreConfig::boom_4wide(), &spec, INSTS),
        None,
    );
    let mut meta = meta_for(&d, &CoreConfig::boom_4wide(), "gcc", INSTS);
    meta.topology = "B".repeat(4097);
    cache.store_result(&meta, &direct.report);
    assert_eq!(cache.stats.stores.load(Ordering::Relaxed), 0);
    let left: Vec<_> = std::fs::read_dir(dir.join("results")).unwrap().collect();
    assert!(left.is_empty(), "no entry and no temporary file remain");
    assert!(cache.lookup_result(&meta).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_cache_always_misses() {
    let d = design();
    let spec = workload_by_name("gcc").unwrap();
    let a = execute_job(
        RunSpec::new(&d, CoreConfig::boom_4wide(), &spec, INSTS),
        None,
    );
    let b = execute_job(
        RunSpec::new(&d, CoreConfig::boom_4wide(), &spec, INSTS),
        None,
    );
    assert_eq!(a.cache, CacheDisposition::Miss);
    assert_eq!(b.cache, CacheDisposition::Miss);
    assert_eq!(a.report, b.report, "determinism without a cache");
}
