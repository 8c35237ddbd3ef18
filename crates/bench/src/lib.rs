//! # cobra-bench
//!
//! The experiment harness: one binary per table and figure of the paper,
//! each printing the same rows/series the paper reports, next to the
//! paper's published values where they exist.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1_storage` | Table I — predictor storage budgets |
//! | `table2_config` | Table II — core configuration |
//! | `table3_systems` | Table III — evaluated systems |
//! | `fig7_pipelines` | Fig 7 — pipeline diagrams of the three designs |
//! | `fig8_area` | Fig 8 — predictor area breakdowns |
//! | `fig9_core_area` | Fig 9 — core area with each predictor |
//! | `fig10_spec` | Fig 10 — SPECint17 MPKI and IPC |
//! | `intro_serialization` | §I — serialized-fetch IPC loss on Dhrystone |
//! | `sec6a_tage_latency` | §VI-A — 2-cycle vs 3-cycle TAGE |
//! | `sec6b_ghist_repair` | §VI-B — history repair-with-replay sweep |
//! | `sec6c_sfb` | §VI-C — short-forwards-branch predication |
//! | `trace_vs_hardware` | §II-B — trace-model error vs the speculating core |
//! | `ablation_superscalar` | §III-C — superscalar vs per-packet counter tables |
//! | `ablation_ittage` | extension — ITTAGE indirect-target prediction |
//! | `ablation_history_depth` | extension — accuracy vs correlation depth |
//! | `energy_report` | §VI-A future work — predictor SRAM energy |
//! | `ablation_alternatives` | extension — statistical-corrector and perceptron designs |
//! | `cobra-trace` | observability — per-component blame tables and event traces |
//! | `cobra-capture` | workloads — capture any workload to a `.cbt` branch trace |
//! | `cobra-checkpoint` | warm state — capture `.cbs` warm-state checkpoints for warmup-once grids |
//! | `cobra-serve` | service — long-running evaluation daemon with a warm-state cache (see [`serve`]) |
//! | `cobra-sample` | sampling — phase-sampling plans, slice checkpoints, sampled estimates, CI accuracy gate (see [`sampling`]) |
//! | `cobra-search` | autotuner — statically-pruned topology search emitting a Pareto frontier (see [`search`]) |
//!
//! Every `COBRA_*` knob is parsed once per entry point into a
//! [`RunConfig`] ([`config`]) and passed down. Every simulation goes
//! through one executor, [`run::execute`]: a [`RunSpec`] in, a
//! [`RunOutcome`] or a typed [`RunError`] out. The grid binaries reach it
//! through [`run_one_sourced`], which turns the `RunConfig` (run length,
//! trace replay, checkpoint restore, phase sampling, progress and
//! interval telemetry, packet path, profiler) into a `RunSpec` per job.
//! `docs/ARCHITECTURE.md`, section "Run pipeline", lists the `RunConfig`
//! fields, the `RunSpec` fields they set, the three warm-state kinds,
//! where provenance is produced, and the `RunError` variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod jsonv;
pub mod reference;
pub mod run;
pub mod runner;
pub mod sampling;
pub mod search;
pub mod serve;
pub mod timing;

pub use config::RunConfig;
pub use run::{execute, warmup_for, RunError, RunOutcome, RunSpec};

use cobra_core::composer::Design;
use cobra_uarch::CoreConfig;
use cobra_workloads::ProgramSpec;
use run::{ProgressFn, WarmState};
use std::path::{Path, PathBuf};

/// The named synthetic kernels [`workload_by_name`] resolves besides the
/// SPECint17 profiles — what `cobra-capture --list` prints and
/// `cobra-serve` accepts.
pub const KERNEL_NAMES: &[&str] = &[
    "dhrystone",
    "coremark",
    "aliasing_stress",
    "loop_stress",
    "history_depth",
    "btb_stress",
    "ras_stress",
];

/// Resolves a workload name (case-insensitively) to its [`ProgramSpec`]:
/// any SPECint17 profile (`cobra_workloads::SPEC17_NAMES`) or any named
/// kernel in [`KERNEL_NAMES`]. The single resolver behind
/// `cobra-capture` and `cobra-serve` admission, so the two tools accept
/// exactly the same names.
pub fn workload_by_name(name: &str) -> Option<ProgramSpec> {
    use cobra_workloads::{kernels, spec17, SPEC17_NAMES};
    if SPEC17_NAMES.iter().any(|n| n.eq_ignore_ascii_case(name)) {
        return Some(spec17(&name.to_ascii_lowercase()));
    }
    match name.to_ascii_lowercase().as_str() {
        "dhrystone" => Some(kernels::dhrystone()),
        "coremark" => Some(kernels::coremark(false)),
        "aliasing_stress" => Some(kernels::aliasing_stress()),
        "loop_stress" => Some(kernels::loop_stress()),
        "history_depth" => Some(kernels::history_depth(32)),
        "btb_stress" => Some(kernels::btb_stress()),
        "ras_stress" => Some(kernels::ras_stress()),
        _ => None,
    }
}

/// The file name an interval-telemetry stream of `design` on `workload`
/// uses: `<design>--<workload>.cbm` (same double-dash convention as
/// [`ckpt_file_name`]).
pub fn metrics_file_name(design: &str, workload: &str) -> String {
    format!("{design}--{workload}.cbm")
}

/// The file name a checkpoint of `design` on `workload` uses:
/// `<design>--<workload>.cbs` (the double dash keeps design names with
/// single dashes, like `TAGE-L`, unambiguous).
pub fn ckpt_file_name(design: &str, workload: &str) -> String {
    format!("{design}--{workload}.cbs")
}

/// `dir/name`, if `dir` is set and the file exists.
fn existing(dir: Option<&Path>, name: &str) -> Option<PathBuf> {
    let path = dir?.join(name);
    path.is_file().then_some(path)
}

/// Runs one grid job: `rc` turned into a [`RunSpec`] and handed to
/// [`execute`]. `tag` is substituted into any `COBRA_TRACE`-attached
/// tracer's output path, so concurrent grid jobs write to distinct,
/// deterministic files.
///
/// With `rc.sample_dir` holding a `<workload>.plan.json`, the job is
/// estimated from the plan's slices. Otherwise, with `rc.trace_dir`
/// holding a `<workload>.cbt`, the core replays the captured trace, and
/// with `rc.ckpt_dir` holding a `<design>--<workload>.cbs`, it skips its
/// warm-up by restoring the checkpoint. Replay and restore give
/// byte-identical reports; workloads without a trace or checkpoint
/// quietly run execution-driven and cold, which keeps partially captured
/// grids runnable and stdout stable. `rc.progress` and `rc.interval` arm
/// the stderr heartbeat and the `.cbm` telemetry.
///
/// # Panics
///
/// Panics with the [`RunError`] if the run fails: a design that does not
/// compose, or a trace, checkpoint or plan that is corrupt, truncated,
/// or of another identity or boundary (a fatal configuration error). The
/// message names the environment variable and the file.
pub fn run_one_sourced(
    rc: &RunConfig,
    design: &Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    tag: Option<&str>,
) -> RunOutcome {
    let base = rc.run_spec(design, cfg, spec, rc.insts);
    let sample_dir = rc.sample_dir.as_deref();
    let plan = existing(sample_dir, &sampling::plan_file_name(&spec.name));
    let outcome = match &plan {
        Some(path) => sampled(rc, base, path, sample_dir),
        None => execute(RunSpec {
            trace: existing(rc.trace_dir.as_deref(), &format!("{}.cbt", spec.name)),
            warm: existing(
                rc.ckpt_dir.as_deref(),
                &ckpt_file_name(&design.name, &spec.name),
            )
            .map_or(WarmState::Cold, WarmState::Restore),
            tag,
            progress: rc
                .progress
                .map(|every| (every, heartbeat(tag, base.warmup + rc.insts))),
            interval: rc.interval.map(|n| (n, rc.interval_dir.clone())),
            ..base
        }),
    };
    outcome.unwrap_or_else(|e| {
        let knob = match e {
            _ if plan.is_some() => "COBRA_SAMPLE_DIR",
            RunError::Checkpoint { .. } => "COBRA_CKPT_DIR",
            RunError::Trace { .. } | RunError::StreamEnded { .. } => "COBRA_TRACE_DIR",
            _ => "run",
        };
        panic!("{knob}: {e}")
    })
}

/// `run`'s measured region estimated under the plan at `path`, from the
/// slice checkpoints in `slice_dir` when every one is there.
fn sampled(
    rc: &RunConfig,
    run: RunSpec<'_>,
    path: &Path,
    slice_dir: Option<&Path>,
) -> Result<RunOutcome, RunError> {
    let started = std::time::Instant::now();
    let plan = sampling::load_plan_at(path, run.warmup)?;
    let sampled = sampling::sample(rc, run.design, run.cfg, run.spec, &plan, slice_dir)?;
    Ok(RunOutcome {
        sampled: Some(format!("{}:{}", sampled.mode.as_str(), path.display())),
        ..RunOutcome::new(sampled.report, started.elapsed())
    })
}

/// The `COBRA_PROGRESS` heartbeat: one stderr line with instructions
/// done, simulated MIPS, and the wall-clock ETA to `target_insts`
/// (warm-up plus measured region). Stderr only — stdout stays stable for
/// diffing.
fn heartbeat(tag: Option<&str>, target_insts: u64) -> ProgressFn {
    let label = tag.unwrap_or("run").to_string();
    let started = std::time::Instant::now();
    std::sync::Arc::new(move |insts, cycles| {
        let secs = started.elapsed().as_secs_f64();
        let mips = if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        };
        let eta = if insts > 0 && target_insts > insts {
            secs * (target_insts - insts) as f64 / insts as f64
        } else {
            0.0
        };
        eprintln!(
            "[runner] progress {label}: {insts}/{target_insts} insts \
             ({:.1}%), {cycles} cycles, {mips:.2} MIPS, ETA {eta:.1}s",
            insts as f64 * 100.0 / target_insts.max(1) as f64
        );
    })
}

/// The number of instructions [`capture_workload`] records for a measured
/// region of `measure` instructions: warm-up (the harness's 40 %) plus
/// the region itself plus fetch-ahead slack, so a replayed run never
/// starves the frontend before the measured region completes.
pub fn capture_len(measure: u64) -> u64 {
    warmup_for(measure) + measure + measure / 10 + 16_384
}

/// Captures `spec` to `<dir>/<name>.cbt` sized for a measured region of
/// `measure` instructions (see [`capture_len`]), returning the summary
/// and the path written.
///
/// # Errors
///
/// Propagates [`CbtError`](cobra_workloads::CbtError) from encode or I/O.
pub fn capture_workload(
    spec: &ProgramSpec,
    measure: u64,
    dir: &std::path::Path,
) -> Result<(cobra_workloads::CbtSummary, PathBuf), cobra_workloads::CbtError> {
    let path = dir.join(format!("{}.cbt", spec.name));
    let mut stream = spec.build();
    let summary =
        cobra_workloads::capture_to_file(&mut stream, capture_len(measure), &spec.name, &path)?;
    Ok((summary, path))
}

/// Prints a horizontal bar scaled to `frac` of `width` characters.
pub fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    "█".repeat(n)
}

/// Formats a percentage delta between `new` and `base`.
pub fn pct_delta(new: f64, base: f64) -> String {
    if base == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", 100.0 * (new - base) / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(0.5, 4).chars().count(), 2);
    }

    #[test]
    fn pct_delta_formats() {
        assert_eq!(pct_delta(1.15, 1.0), "+15.0%");
        assert_eq!(pct_delta(0.97, 1.0), "-3.0%");
        assert_eq!(pct_delta(1.0, 0.0), "n/a");
    }
}
