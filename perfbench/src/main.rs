//! `cobra-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `README.md` beside this file for the workloads, the
//! metrics and the layer map.
//!
//! ```text
//! cobra-perfbench --workload fig10-exec --seed 3 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it,
//! each starting with `#`, carry provenance, per-check details and the
//! reconciliation report. Exit status: 0 when every output matched its
//! reference, 1 on a mismatch or a failed run, 2 on a usage error.

mod grid;
mod serve;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reports 0; `README.md` lists which apply where.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.cell_s_p50", "s"),
    ("runner.cell_s_max", "s"),
    ("runner.busy_ratio", "ratio"),
    ("workloads.synth.ns_per_inst", "ns"),
    ("workloads.synth.pulls_per_commit", "ratio"),
    ("workloads.cbt.ns_per_inst", "ns"),
    ("workloads.cbt.open_ms", "ms"),
    ("workloads.inst_at_per_kinst", "count"),
    ("workloads.inst_at_ns", "ns"),
    ("uarch.core.new_ms", "ms"),
    ("uarch.core.ns_per_inst", "ns"),
    ("uarch.core.ns_per_cycle", "ns"),
    ("uarch.core.ipc", "ratio"),
    ("uarch.core.fetch_bubbles_per_kinst", "count"),
    ("uarch.core.override_redirects_per_kinst", "count"),
    ("composer.trace_ns_per_inst", "ns"),
    ("composer.queries_per_kinst", "count"),
    ("composer.commit_ratio", "ratio"),
    ("composer.revisions_per_kinst", "count"),
    ("composer.repair_entries_per_kinst", "count"),
    ("uarch.checkpoint.restore_ms", "ms"),
    ("uarch.checkpoint.save_ms", "ms"),
    ("uarch.checkpoint.bytes", "B"),
    ("sampling.cell_ms", "ms"),
    ("sampling.slices", "count"),
    ("sampling.sim_fraction", "ratio"),
    ("sampling.restore_share", "ratio"),
    ("sample_err_max_pct", "%"),
    ("sample_err_mean_pct", "%"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.exec_ms_p50.hit", "ms"),
    ("serve.exec_ms_p50.warm", "ms"),
    ("serve.exec_ms_p50.miss", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.warm_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.cache_stores", "count"),
    ("serve.cache_rejected", "count"),
    ("analysis.ms_per_topology", "ms"),
];

/// Repetitions of a cheap set-up whose median is `setup_s`.
pub const SETUP_REPS: usize = 31;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 10 grid, execution-driven, warm-up simulated.
    Exec,
    /// The Fig 10 grid replayed from `.cbt` and restored from `.cbs`.
    Restored,
    /// The Fig 10 grid estimated from the committed sampling plans.
    Sampled,
    /// A `cobra-serve` daemon under a closed-loop request mix.
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fig10-exec" => Some(Workload::Exec),
            "fig10-restored" => Some(Workload::Restored),
            "fig10-sampled" => Some(Workload::Sampled),
            "serve-mixed" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Exec => "fig10-exec",
            Workload::Restored => "fig10-restored",
            Workload::Sampled => "fig10-sampled",
            Workload::Serve => "serve-mixed",
        }
    }

    /// Default measured instructions per grid cell (per request scale for
    /// `serve-mixed`): sized so one pass takes about a second on a 2-core
    /// host, giving a dozen passes to take the median of in a run.
    /// `fig10-sampled` is pinned by its committed plans.
    fn default_insts(self) -> u64 {
        match self {
            Workload::Exec | Workload::Restored => 20_000,
            Workload::Sampled => grid::PLAN_INSTS,
            Workload::Serve => 12_000,
        }
    }
}

/// A resolved command line.
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Orders the grid cells (the requests of `serve-mixed`); `None`
    /// keeps grid order.
    pub seed: Option<u64>,
    /// `fig10-exec` and `fig10-restored`: regenerates the programs
    /// (`ProgramSpec::seed` mixed with it); `None` keeps each profile's
    /// built-in seed, which the golden files assume.
    pub program_seed: Option<u64>,
    /// Seconds of measurement to aim for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Measured instructions per cell.
    pub insts: u64,
    /// Grid cells to run (the first `cells` in grid order).
    pub cells: usize,
    /// Worker threads (and, for `serve-mixed`, connections): at most
    /// `nproc`.
    pub threads: usize,
    /// `fig10-sampled` only: record the estimates instead of checking.
    pub bless: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// The outcome of one run.
#[derive(Default)]
pub struct Run {
    /// Cells or requests attempted.
    pub attempted: u64,
    /// Cells or requests that failed or mismatched their reference.
    pub failed: u64,
    /// One line per mismatch or failed check.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Detail lines printed (with a `#` prefix) before the result.
    pub notes: Vec<String>,
}

impl Run {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check that is not a cell or request.
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

const USAGE: &str = "usage: cobra-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                       [--insts N] [--cells N] [--program-seed N] [--bless]

workloads: fig10-exec fig10-restored fig10-sampled serve-mixed
  --seed N      order the grid cells, or the requests (serve-mixed);
                absent: grid order
  --program-seed N
                fig10-exec, fig10-restored: regenerate the ten programs
                from N; absent: the built-in profile seeds
  --seconds S   measurement time to aim for [15]
  --trace 0|1   1: traced run printing per-layer metrics [0]
  --insts N     measured instructions per cell [per workload]
  --cells N     run only the first N grid cells [30]
  --bless       fig10-sampled: rewrite perfbench/ref/fig10_sampled.jsonl";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut program_seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut insts = None;
    let mut cells = 30usize;
    let mut bless = false;
    let mut it = args.iter();
    let num = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("`{flag}` needs a value"))?;
        v.parse::<u64>()
            .map_err(|_| format!("`{flag}` needs an unsigned integer, got `{v}`"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let v = it.next().ok_or("`--workload` needs a value")?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(num("--seed", it.next())?),
            "--program-seed" => program_seed = Some(num("--program-seed", it.next())?),
            "--seconds" => seconds = num("--seconds", it.next())?.max(1) as f64,
            "--trace" => {
                trace = match num("--trace", it.next())? {
                    0 => false,
                    1 => true,
                    v => return Err(format!("`--trace` takes 0 or 1, got {v}")),
                }
            }
            "--insts" => insts = Some(num("--insts", it.next())?.max(1)),
            "--cells" => cells = num("--cells", it.next())?.clamp(1, 30) as usize,
            "--bless" => bless = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if bless && workload != Workload::Sampled {
        return Err("`--bless` applies to fig10-sampled only".into());
    }
    if program_seed.is_some() && !matches!(workload, Workload::Exec | Workload::Restored) {
        return Err("`--program-seed` applies to fig10-exec and fig10-restored only".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        PathBuf::from(".bench_run").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Config {
        workload,
        seed,
        program_seed,
        seconds,
        trace,
        insts: insts.unwrap_or(workload.default_insts()),
        cells,
        threads: nproc,
        bless,
        work,
    })
}

/// The git revision of the checkout, when it is a git repository.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut cobra_sim::SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Peak resident set of process `pid` (`self` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn provenance(cfg: &Config) -> String {
    format!(
        "provenance {{\"workload\":{:?},\"rev\":{:?},\"cpu\":{:?},\"nproc\":{},\"threads\":{},\
         \"connections\":{},\"seconds\":{},\"insts\":{},\"cells\":{},\"seed\":{},\"program_seed\":{},\
         \"trace\":{}}}",
        cfg.workload.name(),
        git_revision(),
        cpu_model(),
        cfg.threads,
        if cfg.workload == Workload::Serve {
            serve::workers(cfg)
        } else {
            cfg.threads
        },
        if cfg.workload == Workload::Serve {
            serve::connections(cfg)
        } else {
            0
        },
        cfg.seconds,
        cfg.insts,
        cfg.cells,
        cfg.seed.map_or_else(|| "null".to_string(), |s| s.to_string()),
        cfg.program_seed
            .map_or_else(|| "\"builtin\"".to_string(), |s| s.to_string()),
        cfg.trace
    )
}

fn result_line(cfg: &Config, run: &Run) -> Result<String, String> {
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = match run.metrics.get(name) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let correct = run.failed == 0 && run.errors.is_empty();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted.max(1),
        run.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve::DAEMON_FLAG) {
        return serve::daemon_main(&args[1..]);
    }
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cobra-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("cobra-perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    println!("# {}", provenance(&cfg));
    let outcome = match cfg.workload {
        Workload::Serve => serve::run(&cfg),
        _ => grid::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".bench_run");
    let run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cobra-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &run.notes {
        println!("# {n}");
    }
    for e in &run.errors {
        println!("# ERROR {e}");
    }
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    match result_line(&cfg, &run) {
        Ok(line) => {
            println!("{line}");
            if run.failed == 0 && run.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cobra-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
