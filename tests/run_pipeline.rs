//! The run executor's byte-identity and bad-input gate, run by default.
//!
//! One cell (B2 on gcc, 20 000 measured instructions) goes through
//! `cobra_bench::run::execute` five ways — generated stream, replayed
//! `.cbt`, restored `.cbs`, `cobra-serve` tier-2 resume and tier-1 hit —
//! and every way must report the same bytes with its own provenance.
//! Then each kind of bad input (a truncated trace, a trace too short for
//! the run, an unwritable save, a truncated or foreign checkpoint, a plan
//! at the wrong warm-up boundary) must come back as its typed `RunError`,
//! not a panic.
//!
//! Sets no environment variable: every input reaches the executor
//! through its `RunSpec`.

use cobra::core::designs;
use cobra::uarch::{CbsMeta, ContainerError, CoreConfig};
use cobra::workloads::spec17;
use cobra_bench::run::{execute, RunError, RunSpec, WarmState};
use cobra_bench::sampling::{load_plan_at, render_plan, SamplePlan, SampleSlice};
use cobra_bench::serve::cache::WarmCache;
use cobra_bench::serve::exec::{execute_job, CacheDisposition};
use cobra_bench::serve::protocol::report_json;
use cobra_bench::{capture_workload, ckpt_file_name, warmup_for};
use std::path::{Path, PathBuf};

const MEASURE: u64 = 20_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-run-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes the first half of `from` to `to`.
fn truncate_half(from: &Path, to: &Path) {
    let bytes = std::fs::read(from).expect("read");
    std::fs::write(to, &bytes[..bytes.len() / 2]).expect("write");
}

#[test]
fn five_run_paths_report_the_same_bytes_with_their_provenance() {
    let dir = scratch("paths");
    let design = designs::b2();
    let spec = spec17("gcc");
    let cfg = CoreConfig::boom_4wide();
    let warmup = warmup_for(MEASURE);
    let ckpt = dir.join(ckpt_file_name(&design.name, &spec.name));

    // 1. Generated stream, saving the warm-up boundary on the way.
    let generated = execute(RunSpec {
        saves: vec![(warmup, ckpt.clone())],
        ..RunSpec::new(&design, cfg, &spec, MEASURE)
    })
    .expect("generated run");
    assert_eq!(generated.saved.len(), 1);
    assert_eq!(generated.saved[0].0, ckpt);
    assert!(generated.trace.is_none() && generated.checkpoint.is_none());
    assert!(generated.sampled.is_none() && generated.metrics.is_none());
    assert_eq!(generated.provenance_note(), "");
    let want = report_json(&generated.report);
    assert_eq!(generated.report.counters.committed_insts, MEASURE);

    // 2. Replayed `.cbt`.
    let (_, cbt) = capture_workload(&spec, MEASURE, &dir).expect("capture");
    let replayed = execute(RunSpec {
        trace: Some(cbt.clone()),
        ..RunSpec::new(&design, cfg, &spec, MEASURE)
    })
    .expect("replayed run");
    assert_eq!(report_json(&replayed.report), want, "replay");
    assert_eq!(replayed.trace.as_deref(), Some(cbt.as_path()));
    assert!(replayed.checkpoint.is_none());

    // 3. Restored `.cbs`.
    let restored = execute(RunSpec {
        warm: WarmState::Restore(ckpt.clone()),
        ..RunSpec::new(&design, cfg, &spec, MEASURE)
    })
    .expect("restored run");
    assert_eq!(report_json(&restored.report), want, "restore");
    assert_eq!(restored.checkpoint.as_deref(), Some(ckpt.as_path()));
    assert!(restored.trace.is_none());

    // 4. Serve tier 2: the cache holds only the boundary checkpoint.
    let cache = WarmCache::open(&dir.join("cache")).expect("cache");
    let boundary = CbsMeta::for_run(&design, &cfg, &spec.name, warmup);
    std::fs::copy(&ckpt, cache.checkpoint_path(&boundary)).expect("seed tier 2");
    let warm = execute_job(&design, cfg, &spec, MEASURE, Some(&cache), None);
    assert_eq!(warm.cache, CacheDisposition::Warm);
    assert_eq!(report_json(&warm.report), want, "tier-2 resume");

    // 5. Serve tier 1: the warm job stored its result.
    let hit = execute_job(&design, cfg, &spec, MEASURE, Some(&cache), None);
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(report_json(&hit.report), want, "tier-1 hit");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_return_typed_errors() {
    let dir = scratch("errors");
    let design = designs::b2();
    let spec = spec17("gcc");
    let cfg = CoreConfig::boom_4wide();
    let warmup = warmup_for(MEASURE);
    let run = || RunSpec::new(&design, cfg, &spec, MEASURE);

    // A truncated trace.
    let (_, cbt) = capture_workload(&spec, MEASURE, &dir).expect("capture");
    let cut_cbt = dir.join("cut.cbt");
    truncate_half(&cbt, &cut_cbt);
    match execute(RunSpec {
        trace: Some(cut_cbt.clone()),
        ..run()
    }) {
        Err(RunError::Trace { path, .. }) => assert_eq!(path, cut_cbt),
        other => panic!("truncated .cbt: {:?}", other.map(|o| o.report)),
    }

    // A valid trace too short for the run: an error, not a short report.
    let short_dir = dir.join("short");
    std::fs::create_dir_all(&short_dir).expect("short dir");
    let (_, short) = capture_workload(&spec, MEASURE / 10, &short_dir).expect("capture");
    match execute(RunSpec {
        trace: Some(short),
        ..run()
    }) {
        Err(RunError::StreamEnded { needed, got }) => {
            assert_eq!(needed, warmup + MEASURE);
            assert!(got < needed);
        }
        other => panic!("short .cbt: {:?}", other.map(|o| o.report)),
    }

    // A save that cannot be written stops the run with the I/O error,
    // unless the saves are a best-effort cache fill.
    let unwritable = dir.join("missing").join("x.cbs");
    let save_to = |saves_best_effort| RunSpec {
        warmup,
        measure: 0,
        saves: vec![(warmup, unwritable.clone())],
        saves_best_effort,
        ..run()
    };
    match execute(save_to(false)) {
        Err(RunError::Save { path, source }) => {
            assert_eq!(path, unwritable);
            assert!(matches!(source, ContainerError::Io(_)), "{source}");
        }
        other => panic!("unwritable save: {:?}", other.map(|o| o.report)),
    }
    let filled = execute(save_to(true)).expect("best-effort save");
    assert!(filled.saved.is_empty());

    // A truncated checkpoint.
    let ckpt = dir.join(ckpt_file_name(&design.name, &spec.name));
    execute(RunSpec {
        warmup,
        measure: 0,
        saves: vec![(warmup, ckpt.clone())],
        ..run()
    })
    .expect("capture checkpoint");
    let cut_cbs = dir.join("cut.cbs");
    truncate_half(&ckpt, &cut_cbs);
    match execute(RunSpec {
        warm: WarmState::Restore(cut_cbs.clone()),
        ..run()
    }) {
        Err(RunError::Checkpoint { path, source }) => {
            assert_eq!(path, cut_cbs);
            assert!(
                !matches!(source, ContainerError::IdentityMismatch { .. }),
                "{source}"
            );
        }
        other => panic!("truncated .cbs: {:?}", other.map(|o| o.report)),
    }

    // A checkpoint of another design.
    let other = designs::tage_l();
    match execute(RunSpec {
        warm: WarmState::Restore(ckpt.clone()),
        ..RunSpec::new(&other, cfg, &spec, MEASURE)
    }) {
        Err(RunError::Checkpoint {
            source: ContainerError::IdentityMismatch { .. },
            ..
        }) => {}
        other => panic!("foreign .cbs: {:?}", other.map(|o| o.report)),
    }

    // A plan derived at another warm-up boundary.
    let plan = SamplePlan {
        workload: spec.name.clone(),
        source_design: design.name.clone(),
        interval_n: 1_000,
        sig_buckets: 64,
        warmup_insts: warmup + 1,
        total_insts: 1_000,
        seed: 42,
        iterations: 1,
        slices: vec![SampleSlice {
            cluster: 0,
            seq: 0,
            start_inst: warmup + 1,
            len: 1_000,
            cluster_insts: 1_000,
            members: 1,
        }],
    };
    let plan_path = dir.join("gcc.plan.json");
    std::fs::write(&plan_path, render_plan(&plan)).expect("write plan");
    match load_plan_at(&plan_path, warmup) {
        Err(RunError::PlanBoundary { path, plan, run }) => {
            assert_eq!((path, plan, run), (plan_path, warmup + 1, warmup));
        }
        other => panic!("wrong-boundary plan: {:?}", other.map(|p| p.warmup_insts)),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
