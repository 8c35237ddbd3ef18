//! The parallel experiment runner.
//!
//! Every harness binary that reproduces a paper table or figure runs a
//! (design × workload) grid of independent simulations — embarrassingly
//! parallel work the paper itself distributes across FireSim FPGA
//! instances (Section V). This module fans the grid out across OS threads:
//!
//! * [`parallel_map_on`] — deterministic-order parallel map over a slice,
//!   using [`std::thread::scope`] plus an atomic work-queue index (no
//!   external dependencies);
//! * [`run_grid`] — the simulation-shaped convenience: a slice of
//!   [`Job`]s in, a [`JobResult`] per job out (same order), each with the
//!   [`PerfReport`](cobra_uarch::PerfReport), its wall-clock time, and simulated MIPS.
//!
//! Thread count comes from [`RunConfig::threads`] (`COBRA_THREADS`,
//! default: available hardware parallelism). Results are returned in job
//! order regardless of completion order, and each job is a fully
//! independent seeded simulation, so the printed report rows are
//! byte-identical whatever the thread count — the determinism test in
//! `tests/` enforces exactly that.
//!
//! Per-job progress and the end-of-grid throughput summary go to stderr,
//! keeping stdout (the tables the binaries exist to print) stable for
//! diffing against `results/`. Each stderr progress line carries the
//! job's stable grid id (`job07`), which is also the tag substituted into
//! any `COBRA_TRACE` template so concurrent jobs trace to distinct files.
//! Setting `COBRA_METRICS=<path>` additionally appends one JSONL record
//! per job (same id, in job order) once the grid completes.

use crate::{jsonv, run_one_sourced, RunConfig};
use cobra_core::composer::Design;
use cobra_uarch::CoreConfig;
use cobra_workloads::ProgramSpec;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Applies `f` to every item of `items` across `threads` OS threads,
/// returning the results in item order regardless of completion order.
///
/// Work is distributed through a shared atomic index (a lock-free work
/// queue), so long and short jobs interleave without static partitioning
/// imbalance. With `threads <= 1` the map runs inline on the calling
/// thread — bit-identical results either way, as long as `f` itself is
/// deterministic per item.
///
/// # Panics
///
/// Propagates a panic from any worker once all threads have joined.
pub fn parallel_map_on<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed and completed")
        })
        .collect()
}

/// One cell of an experiment grid: a design, a core configuration, and a
/// workload.
pub struct Job<'a> {
    /// The predictor design to compose.
    pub design: &'a Design,
    /// Host-core configuration.
    pub cfg: CoreConfig,
    /// The workload to run.
    pub spec: &'a ProgramSpec,
}

impl<'a> Job<'a> {
    /// A job with the stock 4-wide BOOM configuration.
    pub fn new(design: &'a Design, cfg: CoreConfig, spec: &'a ProgramSpec) -> Self {
        Self { design, cfg, spec }
    }

    fn label(&self) -> String {
        format!("{}/{}", self.design.name, self.spec.name)
    }
}

/// The outcome of one grid job: the run executor's [`RunOutcome`](crate::RunOutcome), with
/// its report, wall clock and provenance (`trace`, `checkpoint`,
/// `metrics`, `sampled`, and `served`/`cache` for jobs a `cobra-serve`
/// daemon ran).
pub use crate::run::RunOutcome as JobResult;

/// [`run_grid`] on `threads` worker threads, every other knob resolved
/// from the environment here (the entry point for in-process drivers).
pub fn run_grid_on(threads: usize, jobs: &[Job<'_>]) -> Vec<JobResult> {
    run_grid(
        &RunConfig {
            threads,
            ..RunConfig::from_env()
        },
        jobs,
    )
}

/// Runs `jobs` under `rc` on `rc.threads` worker threads. Results come
/// back in job order; each row is bit-identical to what a serial loop
/// over [`run_one_sourced`] would produce.
pub fn run_grid(rc: &RunConfig, jobs: &[Job<'_>]) -> Vec<JobResult> {
    let threads = rc.threads;
    let total = jobs.len();
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let results = parallel_map_on(threads, jobs, |i, job| {
        let tag = job_id(i);
        let r = run_one_sourced(
            rc,
            job.design,
            job.cfg,
            job.spec,
            Some(&format!("{tag}-{}-{}", job.design.name, job.spec.name)),
        );
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        // Replayed / restored / served jobs carry their provenance so
        // trace-driven and warmup-skipping grid runs are distinguishable
        // from plain execution-driven ones in the logs.
        let note = r.provenance_note();
        eprintln!(
            "[runner] {n}/{total} {tag} {:<28} {:>7.2}s {:>7.2} MIPS{note}",
            job.label(),
            r.wall.as_secs_f64(),
            r.mips()
        );
        r
    });
    let lines: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, r)| metrics_record(&job_id(i), r))
        .collect();
    if let Err(e) = record_metrics(rc, &lines) {
        eprintln!("[runner] warning: could not write {e}");
    }
    let wall = started.elapsed().as_secs_f64();
    let insts: u64 = results
        .iter()
        .map(|r| r.report.counters.committed_insts)
        .sum();
    // Summed per-job wall clock, not CPU time: when threads oversubscribe
    // the cores, a job's wall includes time spent descheduled.
    let job_secs: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    eprintln!(
        "[runner] grid done: {total} jobs on {} thread(s), {wall:.2}s wall \
         ({job_secs:.2} job-seconds, {:.2} aggregate MIPS)",
        threads.clamp(1, total.max(1)),
        if wall > 0.0 {
            insts as f64 / wall / 1e6
        } else {
            0.0
        }
    );
    results
}

/// The stable id of grid position `i` (`job00`, `job01`, …) — the tag on
/// the stderr progress line, the `COBRA_TRACE` file-name context, and the
/// `job` field of each metrics record.
pub fn job_id(i: usize) -> String {
    format!("job{i:02}")
}

/// Writes a machine-readable summary of a grid run under `rc` to
/// `rc.grid_json` (what the fig10 harness writes to
/// `results/bench_fig10.json`): total wall clock, aggregate MIPS,
/// packet-path mode (`"plan"`, or `"interpreter"` under `COBRA_PLAN=off`),
/// thread count, and one record per job. Failures are reported to stderr
/// but never fail the run — the tables on stdout are the primary artifact.
pub fn write_grid_summary(rc: &RunConfig, results: &[JobResult], wall: Duration) {
    let insts: u64 = results
        .iter()
        .map(|r| r.report.counters.committed_insts)
        .sum();
    let wall_s = wall.as_secs_f64();
    let mips = if wall_s > 0.0 {
        insts as f64 / wall_s / 1e6
    } else {
        0.0
    };
    let jobs: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, r)| format!("  {}", metrics_record(&job_id(i), r)))
        .collect();
    let json = format!(
        "{{\n\"mode\":{},\n\"threads\":{},\n\"jobs_n\":{},\n\"wall_s\":{wall_s:.6},\n\
         \"aggregate_mips\":{mips:.3},\n\"insts\":{insts},\n\"jobs\":[\n{}\n]\n}}",
        jsonv::escape(if rc.plan { "plan" } else { "interpreter" }),
        rc.threads,
        results.len(),
        jobs.join(",\n")
    );
    let path = rc.grid_json.display();
    let write = || -> std::io::Result<()> {
        if let Some(parent) = rc.grid_json.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(&rc.grid_json, json.as_bytes())?;
        Ok(())
    };
    match write() {
        Ok(()) => eprintln!("[runner] grid summary written to {path}"),
        Err(e) => eprintln!("[runner] warning: could not write {path}: {e}"),
    }
}

/// One JSONL metrics record for a finished job — also what `cobra-trace
/// --metrics` emits, so both surfaces share one schema.
pub fn metrics_record(job_id: &str, r: &JobResult) -> String {
    let c = &r.report.counters;
    // Replayed / restored jobs record their provenance paths so
    // trace-driven and checkpoint-restored runs are distinguishable when
    // mining the metrics stream.
    let mut trace_field = match &r.trace {
        Some(p) => format!(",\"trace\":{}", jsonv::escape(&p.display().to_string())),
        None => String::new(),
    };
    if let Some(p) = &r.checkpoint {
        trace_field.push_str(&format!(
            ",\"checkpoint\":{}",
            jsonv::escape(&p.display().to_string())
        ));
    }
    if let Some(p) = &r.metrics {
        trace_field.push_str(&format!(
            ",\"metrics\":{}",
            jsonv::escape(&p.display().to_string())
        ));
    }
    if let Some(p) = &r.sampled {
        trace_field.push_str(&format!(",\"sampled\":{}", jsonv::escape(p)));
    }
    if let Some(s) = &r.served {
        trace_field.push_str(&format!(",\"served\":{}", jsonv::escape(s)));
    }
    if let Some(c) = &r.cache {
        trace_field.push_str(&format!(",\"cache\":{}", jsonv::escape(c)));
    }
    format!(
        "{{\"job\":{},\"design\":{},\"workload\":{},\"wall_s\":{:.6},\"mips\":{:.3},\
         \"ipc\":{:.4},\"mpki\":{:.4},\"acc\":{:.4},\"insts\":{},\"cycles\":{},\
         \"branch_misses\":{}{trace_field}}}",
        jsonv::escape(job_id),
        jsonv::escape(&r.report.design),
        jsonv::escape(&r.report.workload),
        r.wall.as_secs_f64(),
        r.mips(),
        c.ipc(),
        c.mpki(),
        c.branch_accuracy(),
        c.committed_insts,
        c.cycles,
        c.branch_misses()
    )
}

/// Appends `lines` to the `COBRA_METRICS` file, if `rc` names one (the
/// grid runner's and `cobra-serve --bench-client`'s metrics step).
///
/// # Errors
///
/// The [`write_metrics`] error, as `COBRA_METRICS="<path>": <error>`.
pub fn record_metrics(rc: &RunConfig, lines: &[String]) -> Result<(), String> {
    match &rc.metrics {
        Some(path) => {
            write_metrics(path, lines).map_err(|e| format!("COBRA_METRICS={path:?}: {e}"))
        }
        None => Ok(()),
    }
}

/// Appends `lines` (one JSONL record each) to `path`, creating parent
/// directories and the file as needed.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be created or
/// written.
pub fn write_metrics(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_uarch::PerfReport;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_on(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_inline() {
        let items = vec![1, 2, 3];
        let out = parallel_map_on(1, &items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_empty() {
        let items: Vec<u32> = vec![];
        let out = parallel_map_on(8, &items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..64).collect();
        let serial = parallel_map_on(1, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        let parallel = parallel_map_on(8, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn metrics_record_is_valid_json() {
        let r = JobResult::new(
            PerfReport {
                workload: "gcc \"ref\"".into(),
                design: "TAGE-L".into(),
                counters: Default::default(),
                attribution: Default::default(),
            },
            Duration::from_millis(1234),
        );
        let line = metrics_record(&job_id(3), &r);
        let v = jsonv::parse(&line).expect("record parses");
        assert_eq!(v.get("job").and_then(jsonv::Json::as_str), Some("job03"));
        assert_eq!(
            v.get("workload").and_then(jsonv::Json::as_str),
            Some("gcc \"ref\"")
        );
        assert_eq!(
            v.get("branch_misses").and_then(jsonv::Json::as_u64),
            Some(0)
        );
        // Execution-driven records have no trace field at all …
        assert!(v.get("trace").is_none());
        // … replayed jobs carry the trace path.
        let replayed = JobResult {
            trace: Some(std::path::PathBuf::from("/tmp/traces/gcc.cbt")),
            ..r
        };
        let line = metrics_record(&job_id(3), &replayed);
        let v = jsonv::parse(&line).expect("record parses");
        assert_eq!(
            v.get("trace").and_then(jsonv::Json::as_str),
            Some("/tmp/traces/gcc.cbt")
        );
        // … sampled jobs carry the slice-state mode and the plan path …
        let sampled = JobResult {
            sampled: Some("ckpt:/tmp/plans/gcc.plan.json".into()),
            ..replayed.clone()
        };
        let line = metrics_record(&job_id(3), &sampled);
        let v = jsonv::parse(&line).expect("record parses");
        assert_eq!(
            v.get("sampled").and_then(jsonv::Json::as_str),
            Some("ckpt:/tmp/plans/gcc.plan.json")
        );
        // … and served jobs carry the endpoint plus cache disposition.
        let served = JobResult {
            served: Some("unix:/tmp/cobra-serve.sock".into()),
            cache: Some("hit".into()),
            ..replayed
        };
        let line = metrics_record(&job_id(3), &served);
        let v = jsonv::parse(&line).expect("record parses");
        assert_eq!(
            v.get("served").and_then(jsonv::Json::as_str),
            Some("unix:/tmp/cobra-serve.sock")
        );
        assert_eq!(v.get("cache").and_then(jsonv::Json::as_str), Some("hit"));
    }

    #[test]
    fn empty_metrics_knob_writes_nothing() {
        let (rc, _) = RunConfig::from_vars(|k| (k == "COBRA_METRICS").then(String::new));
        assert_eq!(rc.metrics, None);
        let lines = vec!["{\"job\":\"job00\"}".to_string()];
        record_metrics(&rc, &lines).expect("an empty COBRA_METRICS is unset");
    }
}
