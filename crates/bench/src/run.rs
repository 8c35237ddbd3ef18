//! The run executor: the one place the harness composes a [`Core`],
//! gives it its warm state, drives it and records where the result came
//! from. The grid runner, `cobra-serve`, every sampled slice and the
//! capture tools all call [`execute`]; a bad trace or checkpoint comes
//! back as a typed [`RunError`], never a panic. The executor reads
//! none of the harness's `COBRA_*` knobs: callers resolve them into the
//! [`RunSpec`] (`docs/ARCHITECTURE.md`, "Run pipeline").

use cobra_core::composer::Design;
use cobra_core::ComposeError;
use cobra_uarch::{
    restore_checkpoint, restore_checkpoint_resume, save_checkpoint, CbsMeta, ContainerError, Core,
    CoreConfig, InstructionStream, PerfReport,
};
use cobra_workloads::{CbtError, ProgramSpec, TraceProgram};
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The warm-up length for a measured region of `measure` instructions:
/// 40 % of it, shared by every run path so their warm-up boundaries (and
/// the checkpoints keyed on them) agree.
pub fn warmup_for(measure: u64) -> u64 {
    measure * 2 / 5
}

/// A progress callback, `(committed_insts, cycles)`. An `Arc`, so a
/// caller that retries a run can hand both attempts the same sink.
pub type ProgressFn = Arc<dyn Fn(u64, u64) + Send + Sync>;

/// How the machine reaches its warm-up boundary.
pub enum WarmState {
    /// Simulate the warm-up from instruction zero.
    Cold,
    /// Restore a `.cbs` of this run's identity taken at exactly the
    /// warm-up boundary.
    Restore(PathBuf),
    /// Restore a `.cbs` taken at or before the warm-up boundary and
    /// simulate the rest (`cobra-serve`'s tier 2).
    Resume(PathBuf),
}

/// Everything one run needs. Build one with [`RunSpec::new`] and override
/// fields with struct-update syntax.
pub struct RunSpec<'a> {
    /// The predictor design to compose.
    pub design: &'a Design,
    /// Host-core configuration.
    pub cfg: CoreConfig,
    /// The workload. Its name labels the report and keys every checkpoint
    /// identity; its generator ([`ProgramSpec::build`]) feeds the core
    /// unless `trace` is set.
    pub spec: &'a ProgramSpec,
    /// A captured `.cbt` trace to replay in place of the generator.
    pub trace: Option<PathBuf>,
    /// How the machine reaches the warm-up boundary.
    pub warm: WarmState,
    /// The warm-up boundary, in absolute committed instructions.
    pub warmup: u64,
    /// Measured instructions after the warm-up boundary.
    pub measure: u64,
    /// `(boundary, path)` pairs, ascending and none past `warmup`: save a
    /// `.cbs` there, atomically. A failed save stops the run with
    /// [`RunError::Save`] unless `saves_best_effort` is set.
    pub saves: Vec<(u64, PathBuf)>,
    /// Treat `saves` as a cache fill (`cobra-serve`'s tier 2): a failed
    /// save warns on stderr, is left out of [`RunOutcome::saved`], and
    /// the run goes on.
    pub saves_best_effort: bool,
    /// A job tag for any `COBRA_TRACE`-attached tracer's output path.
    pub tag: Option<&'a str>,
    /// A progress callback and its period in committed instructions.
    pub progress: Option<(u64, ProgressFn)>,
    /// Interval telemetry: the interval length and the directory the
    /// `<design>--<workload>.cbm` goes to. `None` leaves it off.
    pub interval: Option<(u64, PathBuf)>,
}

impl<'a> RunSpec<'a> {
    /// A cold, generated, untelemetered run of `measure` instructions
    /// after the standard [`warmup_for`] boundary.
    pub fn new(design: &'a Design, cfg: CoreConfig, spec: &'a ProgramSpec, measure: u64) -> Self {
        Self {
            design,
            cfg,
            spec,
            trace: None,
            warm: WarmState::Cold,
            warmup: warmup_for(measure),
            measure,
            saves: Vec::new(),
            saves_best_effort: false,
            tag: None,
            progress: None,
            interval: None,
        }
    }
}

/// The outcome of one run: the measured report and where it came from
/// (also the grid runner's [`JobResult`](crate::runner::JobResult)).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The measured-region performance report (estimated counters for a
    /// sampled run).
    pub report: PerfReport,
    /// Wall-clock time of the whole run (warm-up + measured region).
    pub wall: Duration,
    /// The `.cbt` file replayed, if the run was trace-driven.
    pub trace: Option<PathBuf>,
    /// The `.cbs` file restored, if the run skipped (part of) its warm-up.
    pub checkpoint: Option<PathBuf>,
    /// The `.cbm` interval-telemetry file written, if any.
    pub metrics: Option<PathBuf>,
    /// `"<mode>:<plan path>"` when the run was *estimated* under a
    /// sampling plan, mode `ckpt` or `cold`
    /// ([`SampleMode`](crate::sampling::SampleMode)).
    pub sampled: Option<String>,
    /// The `cobra-serve` endpoint that produced this report, if served.
    pub served: Option<String>,
    /// How the daemon satisfied a served job: `"hit"` (tier-1 result
    /// cache), `"warm"` (tier-2 checkpoint restore) or `"miss"`.
    pub cache: Option<String>,
    /// The `.cbs` files the run's requested saves wrote, in request
    /// order, with their sizes in bytes.
    pub saved: Vec<(PathBuf, u64)>,
}

impl RunOutcome {
    /// An outcome with no provenance: `report`, produced in `wall`.
    pub fn new(report: PerfReport, wall: Duration) -> Self {
        Self {
            report,
            wall,
            trace: None,
            checkpoint: None,
            metrics: None,
            sampled: None,
            served: None,
            cache: None,
            saved: Vec::new(),
        }
    }

    /// Simulated millions of instructions per wall-clock second, counting
    /// the measured region's committed instructions against the whole
    /// run's wall time (warm-up included) — a conservative throughput
    /// figure for capacity planning.
    pub fn mips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.report.counters.committed_insts as f64 / secs / 1e6
    }

    /// The provenance suffix of a stderr progress line (` trace=…`,
    /// ` ckpt=…`, ` cbm=…`, ` sampled=…`, ` served=…`, ` cache=…`); empty
    /// for a plain execution-driven run.
    pub fn provenance_note(&self) -> String {
        let mut note = String::new();
        if let Some(p) = &self.trace {
            note.push_str(&format!(" trace={}", p.display()));
        }
        if let Some(p) = &self.checkpoint {
            note.push_str(&format!(" ckpt={}", p.display()));
        }
        if let Some(p) = &self.metrics {
            note.push_str(&format!(" cbm={}", p.display()));
        }
        if let Some(p) = &self.sampled {
            note.push_str(&format!(" sampled={p}"));
        }
        if let Some(s) = &self.served {
            note.push_str(&format!(" served={s}"));
        }
        if let Some(c) = &self.cache {
            note.push_str(&format!(" cache={c}"));
        }
        note
    }
}

/// Why a run could not produce a report.
#[derive(Debug)]
pub enum RunError {
    /// The design failed to compose.
    Compose {
        /// The design's name.
        design: String,
        /// The composer's error.
        source: ComposeError,
    },
    /// The `.cbt` trace is unreadable, corrupt or truncated.
    Trace {
        /// The trace file.
        path: PathBuf,
        /// The decode error.
        source: CbtError,
    },
    /// The `.cbs` checkpoint is unreadable, corrupt, truncated, or of
    /// another identity or boundary.
    Checkpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// The container error (`IdentityMismatch` names the field).
        source: ContainerError,
    },
    /// A requested `.cbs` save could not be written.
    Save {
        /// The checkpoint file.
        path: PathBuf,
        /// The container or I/O error.
        source: ContainerError,
    },
    /// The sampling plan is unreadable or malformed.
    Plan {
        /// The plan file.
        path: PathBuf,
        /// What is wrong with it, naming the path.
        message: String,
    },
    /// The sampling plan was derived at another warm-up boundary, so its
    /// slices would measure the wrong region.
    PlanBoundary {
        /// The plan file.
        path: PathBuf,
        /// The plan's warm-up boundary.
        plan: u64,
        /// The run's warm-up boundary.
        run: u64,
    },
    /// The workload ended before a save boundary or the end of the
    /// measured region.
    StreamEnded {
        /// The committed-instruction count the run needed.
        needed: u64,
        /// Where the workload ended.
        got: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Compose { design, source } => write!(f, "{design}: compose: {source}"),
            RunError::Trace { path, source } => write!(f, "replay of {}: {source}", path.display()),
            RunError::Checkpoint { path, source } => {
                write!(f, "restore of {}: {source}", path.display())
            }
            RunError::Save { path, source } => write!(f, "save of {}: {source}", path.display()),
            RunError::Plan { message, .. } => write!(f, "plan {message}"),
            RunError::PlanBoundary { path, plan, run } => write!(
                f,
                "plan {} was derived at warmup boundary {plan} but this run's boundary \
                 is {run} — rerun `cobra-sample plan` at this scale",
                path.display()
            ),
            RunError::StreamEnded { needed, got } => write!(
                f,
                "the workload ended at instruction {got}, before the run reached {needed} \
                 — the input is shorter than the run"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs `run` and reports its measured region with provenance.
///
/// # Errors
///
/// Any [`RunError`] but the plan ones.
pub fn execute(mut run: RunSpec<'_>) -> Result<RunOutcome, RunError> {
    let Some(path) = run.trace.take() else {
        let stream = run.spec.build();
        return execute_on(run, stream);
    };
    let program = TraceProgram::open(&path).map_err(|source| RunError::Trace {
        path: path.clone(),
        source,
    })?;
    if program.name() != run.spec.name {
        eprintln!(
            "warning: {} was captured from workload {:?}, replaying as {:?}",
            path.display(),
            program.name(),
            run.spec.name
        );
    }
    Ok(RunOutcome {
        trace: Some(path),
        ..execute_on(run, program)?
    })
}

/// [`execute`] over `stream` in place of the workload's generator or
/// trace; a cold-started sampling slice passes a [`SkipStream`] over its
/// shared generator and reads the cursor back afterwards.
///
/// [`SkipStream`]: cobra_uarch::SkipStream
pub(crate) fn execute_on<S: InstructionStream>(
    run: RunSpec<'_>,
    stream: S,
) -> Result<RunOutcome, RunError> {
    let started = Instant::now();
    let RunSpec {
        design,
        cfg,
        spec,
        warm,
        warmup,
        measure,
        saves,
        saves_best_effort,
        tag,
        progress,
        interval,
        ..
    } = run;
    let workload = spec.name.as_str();
    let identity = |at: u64| CbsMeta::for_run(design, &cfg, workload, at);
    let mut core = compose(design, cfg, stream)?;
    if let Some(tag) = tag {
        core.bpu_mut().retarget_env_tracer(tag);
    }
    let (checkpoint, resume) = match warm {
        WarmState::Cold => (None, false),
        WarmState::Restore(path) => (Some(path), false),
        WarmState::Resume(path) => (Some(path), true),
    };
    if let Some(path) = &checkpoint {
        restore(&mut core, path, &identity(warmup), resume)?;
    }
    if let Some((every, f)) = progress {
        core.set_progress(every, Box::new(move |insts, cycles| f(insts, cycles)));
    }
    core.set_interval(interval.as_ref().map_or(0, |&(n, _)| n));
    let mut saved = Vec::new();
    for (at, path) in saves {
        debug_assert!(at <= warmup, "saves precede the measured region");
        core.run(at, workload);
        reached(&core, at)?;
        match save_atomically(&path, &identity(at), &core) {
            Ok(bytes) => saved.push((path, bytes)),
            Err(e) if saves_best_effort => eprintln!(
                "warning: could not write checkpoint {}: {e}",
                path.display()
            ),
            Err(source) => return Err(RunError::Save { path, source }),
        }
    }
    let report = core.run_with_warmup(warmup, measure, workload);
    reached(&core, warmup + measure)?;
    let metrics = interval.and_then(|(_, dir)| {
        write_interval_metrics(design, &cfg, workload, warmup, &dir, &mut core, &report)
    });
    Ok(RunOutcome {
        checkpoint,
        metrics,
        saved,
        ..RunOutcome::new(report, started.elapsed())
    })
}

/// Restores the `.cbs` at `path`, taken at boundary `at` of `design` on
/// `spec`, into a freshly composed core and re-serializes that core in
/// memory: the bytes a save/restore/save fixed point must reproduce.
///
/// # Errors
///
/// [`RunError::Compose`], [`RunError::Checkpoint`] for an unusable file,
/// [`RunError::Save`] if the state does not serialize.
pub fn resave_checkpoint(
    design: &Design,
    cfg: CoreConfig,
    spec: &ProgramSpec,
    at: u64,
    path: &Path,
) -> Result<Vec<u8>, RunError> {
    let meta = CbsMeta::for_run(design, &cfg, &spec.name, at);
    let mut core = compose(design, cfg, spec.build())?;
    restore(&mut core, path, &meta, false)?;
    let mut bytes = Vec::new();
    save_checkpoint(&mut bytes, &meta, &core).map_err(|source| RunError::Save {
        path: path.to_path_buf(),
        source,
    })?;
    Ok(bytes)
}

/// Composes `design` into a core over `stream`.
fn compose<S: InstructionStream>(
    design: &Design,
    cfg: CoreConfig,
    stream: S,
) -> Result<Core<S>, RunError> {
    Core::new(design, cfg, stream).map_err(|source| RunError::Compose {
        design: design.name.clone(),
        source,
    })
}

/// Restores the `.cbs` at `path` into `core`: taken exactly at
/// `expected`'s boundary, or with `resume` at or before it (the caller
/// then simulates the rest).
fn restore<S: InstructionStream>(
    core: &mut Core<S>,
    path: &Path,
    expected: &CbsMeta,
    resume: bool,
) -> Result<(), RunError> {
    std::fs::File::open(path)
        .map_err(ContainerError::from)
        .and_then(|f| {
            let r = BufReader::new(f);
            if resume {
                restore_checkpoint_resume(r, expected, core).map(drop)
            } else {
                restore_checkpoint(r, expected, core)
            }
        })
        .map_err(|source| RunError::Checkpoint {
            path: path.to_path_buf(),
            source,
        })
}

/// `Ok` iff `core` has committed at least `needed` instructions.
fn reached<S: InstructionStream>(core: &Core<S>, needed: u64) -> Result<(), RunError> {
    let got = core.counters().committed_insts;
    if got < needed {
        return Err(RunError::StreamEnded { needed, got });
    }
    Ok(())
}

/// Saves `core` as a `.cbs` through a `.tmp` sibling and a rename, so a
/// concurrent reader never sees a half-written file.
fn save_atomically<S: InstructionStream>(
    path: &Path,
    meta: &CbsMeta,
    core: &Core<S>,
) -> Result<u64, ContainerError> {
    let tmp = path.with_extension("cbs.tmp");
    let written = std::fs::File::create(&tmp)
        .map_err(ContainerError::from)
        .and_then(|f| save_checkpoint(BufWriter::new(f), meta, core))
        .and_then(|bytes| {
            std::fs::rename(&tmp, path)?;
            Ok(bytes)
        });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Writes the interval series a measured run collected to
/// `<dir>/<design>--<workload>.cbm`, with the measured-region totals so
/// any reader can check reconciliation, and returns the path. A failed
/// write warns on stderr but never fails the run: telemetry is a side
/// channel.
fn write_interval_metrics<S: InstructionStream>(
    design: &Design,
    cfg: &CoreConfig,
    workload: &str,
    warmup: u64,
    dir: &Path,
    core: &mut Core<S>,
    report: &PerfReport,
) -> Option<PathBuf> {
    let series = core.take_intervals()?;
    let meta = cobra_uarch::CbmMeta {
        design: design.name.clone(),
        topology: design.topology.clone(),
        config_hash: cobra_uarch::config_hash(design, cfg),
        workload: workload.to_string(),
        warmup_insts: warmup,
        interval_n: series.interval_n,
        sig_buckets: cobra_core::obs::interval::SIG_BUCKETS as u64,
    };
    let path = dir.join(crate::metrics_file_name(&design.name, workload));
    let write = || -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        cobra_uarch::save_metrics(
            BufWriter::new(file),
            &meta,
            &series,
            &report.counters.to_host(),
            &report.attribution,
        )
        .map_err(|e| e.to_string())?;
        Ok(())
    };
    match write() {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "warning: could not write interval metrics {}: {e}",
                path.display()
            );
            None
        }
    }
}
