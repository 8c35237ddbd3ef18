//! The two-tier warm-state cache behind `cobra-serve`.
//!
//! Tier 1 is a persistent *result* cache: `.cbr` files keyed on the full
//! evaluation identity `(config_hash, workload, insts, warmup)`. An
//! exact hit skips simulation entirely. Tier 2 is a *checkpoint* cache:
//! `.cbs` files keyed on `(config_hash, workload, warmup_boundary)`; a
//! job that misses tier 1 but finds a checkpoint for the same design and
//! workload at an equal-or-earlier boundary restores it and simulates
//! only the remainder. Both tiers lean entirely on the containers'
//! golden-gate discipline — checksums, identity headers, size caps — so
//! a damaged or foreign entry degrades to a miss, never to a wrong
//! answer.
//!
//! Stores are atomic (write to a `.tmp` sibling, then rename), so a
//! concurrent reader can never observe a half-written entry even when
//! several worker threads share the directory.

use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_uarch::{best_resume_checkpoint, read_result, save_result, CbrMeta, CbsMeta, PerfReport};

/// Monotonic counters describing cache behaviour since the server
/// started; snapshot into the `stats` event and the drain summary.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Tier-1 exact result hits.
    pub hits: AtomicU64,
    /// Tier-2 checkpoint restores (partial simulation).
    pub warm: AtomicU64,
    /// Full cold simulations.
    pub miss: AtomicU64,
    /// Entries written (results and checkpoints).
    pub stores: AtomicU64,
    /// Entries that existed but failed validation and were ignored.
    pub rejected: AtomicU64,
}

impl CacheStats {
    /// Renders the counters as a JSON object fragment.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"warm\":{},\"miss\":{},\"stores\":{},\"rejected\":{}}}",
            self.hits.load(Ordering::Relaxed),
            self.warm.load(Ordering::Relaxed),
            self.miss.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed)
        )
    }
}

/// A warm-state cache rooted at one directory, holding `results/*.cbr`
/// and `ckpt/*.cbs`. Cheap to share behind an `Arc`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct WarmCache {
    results: PathBuf,
    ckpt: PathBuf,
    /// Behaviour counters, updated by lookups and stores.
    pub stats: CacheStats,
}

impl WarmCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        let results = root.join("results");
        let ckpt = root.join("ckpt");
        fs::create_dir_all(&results)?;
        fs::create_dir_all(&ckpt)?;
        Ok(WarmCache {
            results,
            ckpt,
            stats: CacheStats::default(),
        })
    }

    /// Tier-2 lookup: the checkpoint that best shortcuts a run expecting
    /// `meta` (see [`best_resume_checkpoint`]), if any. Checkpoints whose
    /// header fails validation are counted in `stats.rejected` and
    /// skipped; valid checkpoints of other runs are skipped silently.
    pub fn resume_checkpoint(&self, meta: &CbsMeta) -> Option<(PathBuf, CbsMeta)> {
        let (best, invalid) = best_resume_checkpoint(&self.ckpt, meta);
        for (path, e) in invalid {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[cobra-serve] ignoring invalid checkpoint {}: {e}",
                path.display()
            );
        }
        best
    }

    fn result_path(&self, meta: &CbrMeta) -> PathBuf {
        self.results.join(format!(
            "{:016x}--{}--i{}.cbr",
            meta.config_hash, meta.workload, meta.insts
        ))
    }

    /// Where the tier-2 checkpoint for exactly `meta`'s boundary lives;
    /// the run executor saves it there atomically.
    pub fn checkpoint_path(&self, meta: &CbsMeta) -> PathBuf {
        self.ckpt.join(format!(
            "{:016x}--{}--w{}.cbs",
            meta.config_hash, meta.workload, meta.warmup_insts
        ))
    }

    /// Tier-1 lookup: returns the cached report iff an entry exists for
    /// exactly this identity and passes every container check. A
    /// damaged, truncated, or identity-mismatched entry is counted in
    /// `stats.rejected` and treated as absent.
    pub fn lookup_result(&self, meta: &CbrMeta) -> Option<PerfReport> {
        let path = self.result_path(meta);
        let f = fs::File::open(&path).ok()?;
        match read_result(BufReader::new(f), meta) {
            Ok(report) => Some(report),
            Err(e) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[cobra-serve] ignoring invalid result cache entry {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    /// Stores a report under its identity, atomically. Failures are
    /// logged and swallowed — the cache is an accelerator, never a
    /// correctness dependency.
    pub fn store_result(&self, meta: &CbrMeta, report: &PerfReport) {
        let path = self.result_path(meta);
        let tmp = path.with_extension("cbr.tmp");
        let outcome = (|| -> std::io::Result<()> {
            let f = fs::File::create(&tmp)?;
            save_result(std::io::BufWriter::new(f), meta, report)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            fs::rename(&tmp, &path)
        })();
        match outcome {
            Ok(()) => {
                self.stats.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                eprintln!(
                    "[cobra-serve] failed to store result cache entry {}: {e}",
                    path.display()
                );
            }
        }
    }

    /// `true` iff a checkpoint for exactly this boundary already exists.
    pub fn has_checkpoint(&self, meta: &CbsMeta) -> bool {
        self.checkpoint_path(meta).exists()
    }
}
