//! Byte-identity of the compiled execution plan against the reference
//! interpreter.
//!
//! The plan path (`composer/plan.rs`) is a pure devirtualization of the
//! interpreter's per-packet walk: same responses, same fold schedule
//! results, same metadata, same attribution. This test enforces that
//! contract end-to-end: every stock design × every SPECint17 profile must
//! produce bit-identical [`PerfReport`]s (counters *and* per-component
//! attribution) with `COBRA_PLAN=off` and with the plan enabled —
//! execution-driven, trace-replayed (`COBRA_TRACE_DIR`), and
//! checkpoint-restored (`COBRA_CKPT_DIR`), plus a dirty-state
//! `reset_to_baseline` rerun arm. Each arm is its own test with its own
//! [`RunConfig`], so the arms run in parallel and touch no process
//! environment.

use cobra_bench::{capture_workload, ckpt_file_name, run_one_sourced, RunConfig};
use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_uarch::{restore_checkpoint, save_checkpoint, CbsMeta, Core, CoreConfig, PerfReport};
use cobra_workloads::{spec17, ProgramSpec};
use std::path::{Path, PathBuf};

const MEASURE: u64 = 4000;
const WARMUP: u64 = MEASURE * 2 / 5;

/// Every knob at its default but the measured length.
fn base() -> RunConfig {
    RunConfig {
        insts: MEASURE,
        ..RunConfig::default()
    }
}

fn specs() -> Vec<ProgramSpec> {
    spec17::SPEC17_NAMES
        .iter()
        .map(|w| spec17::spec17(w))
        .collect()
}

fn sweep(rc: &RunConfig, designs: &[Design], specs: &[ProgramSpec]) -> Vec<PerfReport> {
    designs
        .iter()
        .flat_map(|d| {
            specs
                .iter()
                .map(|s| run_one_sourced(rc, d, CoreConfig::boom_4wide(), s, None).report)
        })
        .collect()
}

/// The reference: direct execution through the interpreter.
fn reference(designs: &[Design], specs: &[ProgramSpec]) -> Vec<PerfReport> {
    let rc = RunConfig {
        plan: false,
        ..base()
    };
    sweep(&rc, designs, specs)
}

fn assert_identical(reference: &[PerfReport], got: &[PerfReport], arm: &str) {
    assert_eq!(reference.len(), got.len());
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(
            r, g,
            "{arm}: {}/{} diverged from the reference interpreter run",
            r.design, r.workload
        );
        // PerfReport equality already covers attribution; spell the
        // per-component check out so a divergence names the surface.
        assert_eq!(
            r.attribution, g.attribution,
            "{arm}: {}/{} attribution counters diverged",
            r.design, r.workload
        );
    }
}

/// Runs `rc` through both packet paths and checks each against the
/// reference.
fn assert_both_paths(rc: &RunConfig, reference: &[PerfReport], arm: &str) {
    let (all, specs) = (designs::all(), specs());
    for plan in [false, true] {
        let rc = RunConfig { plan, ..rc.clone() };
        let path = if plan { "plan" } else { "interpreter" };
        assert_identical(
            reference,
            &sweep(&rc, &all, &specs),
            &format!("{arm}+{path}"),
        );
    }
}

/// A fresh scratch directory for one arm.
fn scratch(arm: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cobra-plan-identity-{arm}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Captures every profile's trace into `dir`.
fn capture_traces(specs: &[ProgramSpec], dir: &Path) {
    for s in specs {
        capture_workload(s, MEASURE, dir).expect("capture");
    }
}

/// Warms every pair once and checkpoints it at the warm-up boundary into
/// `dir`.
fn capture_ckpts(designs: &[Design], specs: &[ProgramSpec], dir: &Path) {
    for d in designs {
        for s in specs {
            capture_ckpt(d, s, WARMUP, &dir.join(ckpt_file_name(&d.name, &s.name)));
        }
    }
}

/// Arm 1 — direct execution: the interpreter is the reference.
#[test]
fn direct_plan_matches_interpreter() {
    let (all, specs) = (designs::all(), specs());
    let rc = RunConfig {
        plan: true,
        ..base()
    };
    assert_identical(
        &reference(&all, &specs),
        &sweep(&rc, &all, &specs),
        "direct",
    );
}

/// Arm 2 — trace-replayed: capture every profile, then replay through
/// both packet paths.
#[test]
fn trace_replayed_paths_match_interpreter() {
    let (all, specs) = (designs::all(), specs());
    let dir = scratch("trace");
    capture_traces(&specs, &dir);
    let rc = RunConfig {
        trace_dir: Some(dir.clone()),
        ..base()
    };
    assert_both_paths(&rc, &reference(&all, &specs), "trace");
    std::fs::remove_dir_all(&dir).ok();
}

/// Arm 3 — checkpoint-restored (composed with the trace replay): warm
/// every pair once, checkpoint at the warmup boundary, and rerun both
/// packet paths from the restored state.
#[test]
fn checkpoint_restored_paths_match_interpreter() {
    let (all, specs) = (designs::all(), specs());
    let dir = scratch("ckpt");
    let (trace_dir, ckpt_dir) = (dir.join("traces"), dir.join("ckpts"));
    std::fs::create_dir_all(&trace_dir).unwrap();
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    capture_traces(&specs, &trace_dir);
    capture_ckpts(&all, &specs, &ckpt_dir);
    let rc = RunConfig {
        trace_dir: Some(trace_dir),
        ckpt_dir: Some(ckpt_dir),
        ..base()
    };
    assert_both_paths(&rc, &reference(&all, &specs), "ckpt");
    std::fs::remove_dir_all(&dir).ok();
}

/// Arm 4 — dirty-state rerun: restore once, then measure twice with a
/// `reset_to_baseline` in between. Both reruns must reproduce the
/// reference report exactly, proving the dirty-row reset restores every
/// mutated table row (a missed row would skew the second run).
#[test]
fn dirty_reset_rerun_matches_interpreter() {
    let all = designs::all();
    let specs: Vec<ProgramSpec> = specs().into_iter().take(3).collect();
    let dir = scratch("rerun");
    capture_ckpts(&all, &specs, &dir);
    let reference = reference(&all, &specs);
    for (di, d) in all.iter().enumerate() {
        for (si, s) in specs.iter().enumerate() {
            let cfg = CoreConfig::boom_4wide();
            let mut core = Core::new(d, cfg, s.build()).expect("compose");
            let meta = CbsMeta::for_run(d, &cfg, &s.name, WARMUP);
            let bytes = std::fs::read(dir.join(ckpt_file_name(&d.name, &s.name))).unwrap();
            restore_checkpoint(&bytes[..], &meta, &mut core).expect("restore");
            core.arm_baseline();
            let first = core.run_with_warmup(WARMUP, MEASURE, &s.name);
            core.reset_to_baseline(s.build()).expect("dirty reset");
            let second = core.run_with_warmup(WARMUP, MEASURE, &s.name);
            let expect = &reference[di * specs.len() + si];
            assert_eq!(&first, expect, "rerun arm: first run diverged");
            assert_eq!(
                &second, expect,
                "rerun arm: {}/{} diverged after reset_to_baseline",
                d.name, s.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn capture_ckpt(design: &Design, spec: &ProgramSpec, warmup: u64, path: &Path) {
    let cfg = CoreConfig::boom_4wide();
    let mut core = Core::new(design, cfg, spec.build()).expect("compose");
    core.run(warmup, &spec.name);
    let meta = CbsMeta::for_run(design, &cfg, &spec.name, warmup);
    let file = std::fs::File::create(path).expect("create checkpoint");
    save_checkpoint(std::io::BufWriter::new(file), &meta, &core).expect("save checkpoint");
}
