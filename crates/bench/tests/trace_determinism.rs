//! Determinism and isolation of `COBRA_TRACE` event tracing.
//!
//! Two properties, both load-bearing for the observability story:
//!
//! 1. **Tracing never perturbs results.** A grid run with tracing on
//!    must produce `PerfReport`s (and therefore printed stdout rows)
//!    identical to a run with tracing off — the sinks observe, they do
//!    not steer.
//! 2. **Trace files are thread-count independent.** Each grid job traces
//!    to its own file named by its stable job id, so the bytes of every
//!    per-job trace must be identical whether the grid ran on 1 thread
//!    or 4, same as the reports themselves.

use cobra_bench::runner::{job_id, run_grid, Job};
use cobra_bench::RunConfig;
use cobra_core::designs;
use cobra_core::obs::trace;
use cobra_uarch::{CoreConfig, PerfReport};
use cobra_workloads::{kernels, spec17};
use std::path::PathBuf;

fn grid_reports(threads: usize, jobs: &[Job<'_>]) -> Vec<PerfReport> {
    let rc = RunConfig {
        threads,
        insts: 6000,
        ..RunConfig::default()
    };
    run_grid(&rc, jobs).into_iter().map(|r| r.report).collect()
}

/// One test function on purpose: `COBRA_TRACE` is a process-wide gate,
/// so the test pins it for the whole process, which would race against
/// sibling tests reading the same variable.
#[test]
fn tracing_is_deterministic_and_free_of_side_effects() {
    let d_tourn = designs::tournament();
    let d_tage = designs::tage_l();
    let specs = [spec17::spec17("gcc"), kernels::aliasing_stress()];
    let designs = [&d_tourn, &d_tage];
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            designs
                .iter()
                .map(move |d| Job::new(d, CoreConfig::boom_4wide(), spec))
        })
        .collect();

    // Baseline: tracing off.
    trace::set_enabled(false);
    let reports_off = grid_reports(1, &jobs);

    let base = std::env::temp_dir().join(format!("cobra-trace-test-{}", std::process::id()));
    let dir1 = base.join("t1");
    let dir4 = base.join("t4");

    // Same grid, tracing on, 1 thread then 4 threads into separate dirs.
    std::env::set_var(
        "COBRA_TRACE",
        dir1.join("ev-{}.jsonl").to_str().expect("utf-8 path"),
    );
    trace::set_enabled(true);
    let reports_t1 = grid_reports(1, &jobs);

    std::env::set_var(
        "COBRA_TRACE",
        dir4.join("ev-{}.jsonl").to_str().expect("utf-8 path"),
    );
    let reports_t4 = grid_reports(4, &jobs);

    std::env::remove_var("COBRA_TRACE");
    trace::set_enabled(false);

    // Property 1: tracing changed nothing — raw reports and the Display
    // rows the harness binaries print are byte-identical.
    assert_eq!(
        reports_off, reports_t1,
        "tracing on must not change results"
    );
    assert_eq!(
        reports_off, reports_t4,
        "thread count must not change results"
    );
    for (off, on) in reports_off.iter().zip(&reports_t1) {
        assert_eq!(off.to_string(), on.to_string());
    }

    // Property 2: per-job trace bytes are identical across thread counts.
    for (i, job) in jobs.iter().enumerate() {
        let name = format!(
            "ev-{}-{}-{}.jsonl",
            job_id(i),
            job.design.name,
            job.spec.name
        );
        let read = |dir: &PathBuf| {
            std::fs::read(dir.join(&name))
                .unwrap_or_else(|e| panic!("missing trace {name} in {}: {e}", dir.display()))
        };
        let (b1, b4) = (read(&dir1), read(&dir4));
        assert!(!b1.is_empty(), "{name}: trace should contain events");
        assert_eq!(b1, b4, "{name}: trace bytes diverged across thread counts");
    }

    let _ = std::fs::remove_dir_all(&base);
}
