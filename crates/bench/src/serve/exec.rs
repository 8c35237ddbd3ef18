//! Job execution for `cobra-serve`: one function that takes a job
//! identity and produces a [`PerfReport`], consulting the warm cache at
//! both tiers and repopulating it on the way out.
//!
//! The correctness invariant is byte-identity: whatever path a job takes
//! — tier-1 hit, tier-2 partial restore, or a cold run — the report it
//! returns is exactly the report a direct `Core::run_with_warmup` would
//! produce for the same `(design, config, workload, insts)`. Tier 1
//! stores the direct run's report verbatim; tier 2 holds because the
//! machine is deterministic to the committed-instruction boundary (see
//! `resume_from_earlier_boundary_is_byte_identical` in
//! `cobra_uarch::checkpoint`).

use std::sync::atomic::Ordering;
use std::time::Instant;

use cobra_core::composer::Design;
use cobra_uarch::{config_hash, CbrMeta, CbsMeta, CoreConfig, PerfReport};
use cobra_workloads::ProgramSpec;

use super::cache::WarmCache;
use crate::run::{execute, RunError, RunSpec, WarmState};
pub use crate::run::{warmup_for, ProgressFn};

/// Which cache path served a job; rendered into the `result` event and
/// the runner provenance line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Tier-1 exact result hit — no simulation.
    Hit,
    /// Tier-2 checkpoint restore — simulated only past the boundary.
    Warm,
    /// Cold run (including cache-disabled operation).
    Miss,
}

impl CacheDisposition {
    /// The wire spelling used in events and provenance lines.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Warm => "warm",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// What [`execute_job`] hands back.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The performance report — byte-identical to a direct run's.
    pub report: PerfReport,
    /// Which cache path produced it.
    pub cache: CacheDisposition,
    /// Wall-clock seconds spent inside [`execute_job`].
    pub wall_s: f64,
}

/// Evaluates `(design, cfg, spec)` for `insts` measured instructions,
/// consulting `cache` (when present) at both tiers and repopulating it.
///
/// `progress` installs a committed-instruction callback with the given
/// stride on any path that actually simulates (tier-1 hits produce no
/// progress events — there is nothing to report progress *on*).
///
/// # Panics
///
/// Panics if the design fails to compose: admission gated the topology
/// already, so that is a daemon bug, not bad input.
pub fn execute_job(
    design: &Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    insts: u64,
    cache: Option<&WarmCache>,
    progress: Option<(u64, ProgressFn)>,
) -> ExecOutcome {
    let started = Instant::now();
    let warmup = warmup_for(insts);
    let result_meta = CbrMeta {
        design: design.name.clone(),
        topology: design.topology.clone(),
        config_hash: config_hash(design, &cfg),
        workload: spec.name.clone(),
        insts,
        warmup_insts: warmup,
    };

    // Tier 1: an exact result for this identity skips simulation.
    if let Some(c) = cache {
        if let Some(report) = c.lookup_result(&result_meta) {
            c.stats.hits.fetch_add(1, Ordering::Relaxed);
            return ExecOutcome {
                report,
                cache: CacheDisposition::Hit,
                wall_s: started.elapsed().as_secs_f64(),
            };
        }
    }

    // Tier 2: resume from the latest checkpoint at or before our warmup
    // boundary, and checkpoint the boundary for future jobs if it is not
    // stored yet. A failed restore falls back to one cold run.
    let boundary = CbsMeta::for_run(design, &cfg, &spec.name, warmup);
    let resume = cache.and_then(|c| c.resume_checkpoint(&boundary));
    let saves = match cache {
        Some(c) if !c.has_checkpoint(&boundary) => vec![(warmup, c.checkpoint_path(&boundary))],
        _ => Vec::new(),
    };
    let run = |warm| {
        execute(RunSpec {
            warm,
            saves: saves.clone(),
            saves_best_effort: true,
            progress: progress.clone(),
            ..RunSpec::new(design, cfg, spec, insts)
        })
    };
    let mut disposition = CacheDisposition::Miss;
    let outcome = match resume {
        Some((path, _meta)) => match run(WarmState::Resume(path)) {
            Err(e @ RunError::Checkpoint { .. }) => {
                if let Some(c) = cache {
                    c.stats.rejected.fetch_add(1, Ordering::Relaxed);
                }
                eprintln!("[cobra-serve] ignoring unusable checkpoint: {e}");
                run(WarmState::Cold)
            }
            warm => {
                disposition = CacheDisposition::Warm;
                warm
            }
        },
        None => run(WarmState::Cold),
    };
    let outcome = outcome.unwrap_or_else(|e| panic!("admission gated the job already: {e}"));
    if let Some(c) = cache {
        let counter = match disposition {
            CacheDisposition::Warm => &c.stats.warm,
            _ => &c.stats.miss,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        c.stats
            .stores
            .fetch_add(outcome.saved.len() as u64, Ordering::Relaxed);
        c.store_result(&result_meta, &outcome.report);
    }
    ExecOutcome {
        report: outcome.report,
        cache: disposition,
        wall_s: started.elapsed().as_secs_f64(),
    }
}
