//! Every `COBRA_*` knob the bench crate honours, parsed in one place
//! (`docs/CONFIG.md`). [`RunConfig::from_env`] runs once per entry point
//! (each binary's `main`, and [`run_grid_on`](crate::runner::run_grid_on),
//! [`run_sampled`](crate::sampling::run_sampled) and
//! [`Server::bind`](crate::serve::server::Server::bind) for in-process
//! drivers); below it, the config is passed down. Integers are trimmed
//! and may use `_` separators; switches take `1`/`on`/`true` or
//! `0`/`off`/`false` in any case ([`parse_switch`]). Unset or empty is
//! the default; a bad value warns once per resolution and is the default.

use crate::run::RunSpec;
use crate::serve::{DEFAULT_CACHE_DIR, DEFAULT_INSTS_CAP, DEFAULT_QUEUE_CAP};
use cobra_core::composer::Design;
use cobra_core::env::{parse_switch, switch_warning};
use cobra_uarch::CoreConfig;
use cobra_workloads::ProgramSpec;
use std::path::PathBuf;
use std::thread::available_parallelism;

/// Every harness knob, resolved. One field per `COBRA_*` variable.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `COBRA_INSTS`: measured instructions per run (≥ 1, default 500 000).
    pub insts: u64,
    /// `COBRA_THREADS`: worker threads (≥ 1, default all cores).
    pub threads: usize,
    /// `COBRA_PLAN`: the compiled plan (on) or the interpreter (off).
    pub plan: bool,
    /// `COBRA_TRACE_DIR`: `.cbt` traces to replay, by workload.
    pub trace_dir: Option<PathBuf>,
    /// `COBRA_CKPT_DIR`: `.cbs` warm-up checkpoints to restore.
    pub ckpt_dir: Option<PathBuf>,
    /// `COBRA_SAMPLE_DIR`: sampling plans (and slice checkpoints).
    pub sample_dir: Option<PathBuf>,
    /// `COBRA_SAMPLE_WARMUP`: cold-start warm-up per sampled slice.
    pub sample_warmup: Option<u64>,
    /// `COBRA_INTERVAL`: interval-telemetry length; `None` (or `0`) off.
    pub interval: Option<u64>,
    /// `COBRA_INTERVAL_DIR`: where `.cbm` files go (`metrics/`).
    pub interval_dir: PathBuf,
    /// `COBRA_PROGRESS`: stderr heartbeat period; `None` (or `0`) off.
    pub progress: Option<u64>,
    /// `COBRA_PROFILE`: the plan-node self-profiler.
    pub profile: bool,
    /// `COBRA_METRICS`: the JSONL file per-job records are appended to.
    pub metrics: Option<PathBuf>,
    /// `COBRA_GRID_JSON`: where `fig10_spec` writes its run summary.
    pub grid_json: PathBuf,
    /// `COBRA_SERVE_CACHE`: `cobra-serve`'s warm-cache root (`None`: off).
    pub serve_cache: Option<PathBuf>,
    /// `COBRA_SERVE_QUEUE`: admission-queue bound (≥ 1).
    pub serve_queue: usize,
    /// `COBRA_SERVE_PROGRESS`: progress stride (`None`: `insts / 4`).
    pub serve_progress: Option<u64>,
    /// `COBRA_SERVE_INSTS_CAP`: largest accepted per-job `insts` (≥ 1).
    pub serve_insts_cap: u64,
}

impl Default for RunConfig {
    /// Every knob at its default, as if the environment were empty.
    fn default() -> Self {
        Self::from_vars(|_| None).0
    }
}

impl RunConfig {
    /// Resolves every knob from the process environment, printing any
    /// warnings to stderr.
    pub fn from_env() -> Self {
        let (cfg, warnings) = Self::from_vars(|name| std::env::var(name).ok());
        for w in warnings {
            eprintln!("{w}");
        }
        cfg
    }

    /// Resolves every knob from `get` (a variable's raw value, or `None`
    /// when unset), returning the warnings instead of printing them.
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut r = Reader {
            get,
            warnings: Vec::new(),
        };
        let cfg = RunConfig {
            insts: r
                .uint("COBRA_INSTS", "using the default of 500000")
                .unwrap_or(500_000)
                .max(1),
            threads: r
                .uint("COBRA_THREADS", "using available parallelism")
                .map_or_else(
                    || available_parallelism().map_or(1, |n| n.get()),
                    |n| n.max(1) as usize,
                ),
            plan: r.plan(),
            trace_dir: r.dir("COBRA_TRACE_DIR", "running execution-driven"),
            ckpt_dir: r.dir("COBRA_CKPT_DIR", "warming up from scratch"),
            sample_dir: r.dir("COBRA_SAMPLE_DIR", "running exact"),
            sample_warmup: r.uint("COBRA_SAMPLE_WARMUP", "using 2x the interval length"),
            interval: r.uint("COBRA_INTERVAL", "telemetry off").filter(|&n| n > 0),
            interval_dir: r
                .value("COBRA_INTERVAL_DIR")
                .map_or_else(|| PathBuf::from("metrics"), PathBuf::from),
            progress: r.uint("COBRA_PROGRESS", "heartbeat off").filter(|&n| n > 0),
            profile: r.switch("COBRA_PROFILE", false),
            metrics: r.value("COBRA_METRICS").map(PathBuf::from),
            grid_json: r
                .value("COBRA_GRID_JSON")
                .map_or_else(|| PathBuf::from("results/bench_fig10.json"), PathBuf::from),
            serve_cache: r.serve_cache(),
            serve_queue: r
                .uint("COBRA_SERVE_QUEUE", "using the default of 64")
                .map_or(DEFAULT_QUEUE_CAP, |n| (n as usize).max(1)),
            serve_progress: r.uint("COBRA_SERVE_PROGRESS", "using insts/4 per job"),
            serve_insts_cap: r
                .uint("COBRA_SERVE_INSTS_CAP", "using the default of 5000000")
                .map_or(DEFAULT_INSTS_CAP, |n| n.max(1)),
        };
        (cfg, r.warnings)
    }

    /// A cold, generated run of `measure` instructions (as
    /// [`RunSpec::new`]) on the packet path and with the profiler this
    /// configuration selects.
    pub fn run_spec<'a>(
        &self,
        design: &'a Design,
        cfg: CoreConfig,
        spec: &'a ProgramSpec,
        measure: u64,
    ) -> RunSpec<'a> {
        RunSpec {
            plan: self.plan,
            profile: self.profile,
            ..RunSpec::new(design, cfg, spec, measure)
        }
    }
}

/// Reads knobs through `get`, collecting one warning per bad value.
struct Reader<F> {
    get: F,
    warnings: Vec<String>,
}

impl<F: Fn(&str) -> Option<String>> Reader<F> {
    /// The trimmed value of `name`; `None` when unset or empty.
    fn value(&self, name: &str) -> Option<String> {
        let v = (self.get)(name)?;
        let v = v.trim();
        (!v.is_empty()).then(|| v.to_string())
    }

    fn uint(&mut self, name: &str, fallback: &str) -> Option<u64> {
        let raw = self.value(name)?;
        let n = raw.replace('_', "").parse().ok();
        if n.is_none() {
            self.warnings.push(format!(
                "warning: {name}={raw:?} is not a number; {fallback}"
            ));
        }
        n
    }

    fn switch(&mut self, name: &str, default: bool) -> bool {
        let Some(raw) = self.value(name) else {
            return default;
        };
        parse_switch(&raw).unwrap_or_else(|| {
            self.warnings.push(switch_warning(name, &raw, default));
            default
        })
    }

    /// `COBRA_PLAN`, which also spells off as `interpreter`.
    fn plan(&mut self) -> bool {
        match self.value("COBRA_PLAN") {
            Some(v) if v.eq_ignore_ascii_case("interpreter") => false,
            _ => self.switch("COBRA_PLAN", true),
        }
    }

    /// A directory knob: a set-but-missing directory warns, naming what
    /// the run does instead (`fallback`), and is treated as unset.
    fn dir(&mut self, name: &str, fallback: &str) -> Option<PathBuf> {
        let raw = self.value(name)?;
        let path = PathBuf::from(&raw);
        if path.is_dir() {
            return Some(path);
        }
        self.warnings.push(format!(
            "warning: {name}={raw:?} is not a directory; {fallback}"
        ));
        None
    }

    /// `COBRA_SERVE_CACHE`: unset is the default root; empty or an off
    /// value disables the cache; anything else is the root.
    fn serve_cache(&self) -> Option<PathBuf> {
        let Some(raw) = (self.get)("COBRA_SERVE_CACHE") else {
            return Some(PathBuf::from(DEFAULT_CACHE_DIR));
        };
        let v = raw.trim();
        (!v.is_empty() && parse_switch(v) != Some(false)).then(|| PathBuf::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves a configuration with exactly the one variable `name` set
    /// to `value`.
    fn one(name: &str, value: &str) -> (RunConfig, Vec<String>) {
        RunConfig::from_vars(|k| (k == name).then(|| value.to_string()))
    }

    /// `(value, expected field, warns)` rows for one knob, each resolved
    /// with only that knob set.
    fn table<T: PartialEq + std::fmt::Debug>(
        name: &str,
        field: impl Fn(&RunConfig) -> T,
        rows: &[(&str, T, bool)],
    ) {
        for (value, want, warns) in rows {
            let (cfg, warnings) = one(name, value);
            assert_eq!(&field(&cfg), want, "{name}={value:?}");
            assert_eq!(
                warnings.len(),
                usize::from(*warns),
                "{name}={value:?}: {warnings:?}"
            );
            if *warns {
                assert!(warnings[0].starts_with(&format!("warning: {name}=")));
            }
        }
    }

    #[test]
    fn empty_environment_is_all_defaults() {
        let (cfg, warnings) = RunConfig::from_vars(|_| None);
        assert!(warnings.is_empty());
        assert_eq!(cfg.insts, 500_000);
        assert!(cfg.threads >= 1);
        assert!(cfg.plan && !cfg.profile);
        assert_eq!(cfg.interval_dir, PathBuf::from("metrics"));
        assert_eq!(cfg.grid_json, PathBuf::from("results/bench_fig10.json"));
        assert_eq!(cfg.serve_cache, Some(PathBuf::from("serve-cache")));
        assert_eq!(cfg.serve_queue, 64);
        assert_eq!(cfg.serve_insts_cap, 5_000_000);
        for off in [cfg.trace_dir, cfg.ckpt_dir, cfg.sample_dir, cfg.metrics] {
            assert_eq!(off, None);
        }
        for off in [
            cfg.sample_warmup,
            cfg.interval,
            cfg.progress,
            cfg.serve_progress,
        ] {
            assert_eq!(off, None);
        }
    }

    #[test]
    fn integer_knobs() {
        table(
            "COBRA_INSTS",
            |c| c.insts,
            &[
                ("20000", 20_000, false),
                (" 20000 ", 20_000, false),
                ("1_000_000", 1_000_000, false),
                ("0", 1, false),
                ("", 500_000, false),
                ("abc", 500_000, true),
                ("-5", 500_000, true),
            ],
        );
        let parallelism = RunConfig::default().threads;
        table(
            "COBRA_THREADS",
            |c| c.threads,
            &[
                ("3", 3, false),
                ("1_6", 16, false),
                ("0", 1, false),
                ("many", parallelism, true),
            ],
        );
        table(
            "COBRA_SAMPLE_WARMUP",
            |c| c.sample_warmup,
            &[
                ("0", Some(0), false),
                ("20_000", Some(20_000), false),
                ("x", None, true),
            ],
        );
        for name in ["COBRA_INTERVAL", "COBRA_PROGRESS"] {
            let field = |c: &RunConfig| {
                if name == "COBRA_INTERVAL" {
                    c.interval
                } else {
                    c.progress
                }
            };
            table(
                name,
                field,
                &[
                    ("10_000", Some(10_000), false),
                    ("0", None, false),
                    ("", None, false),
                    ("ten", None, true),
                ],
            );
        }
        table(
            "COBRA_SERVE_QUEUE",
            |c| c.serve_queue,
            &[
                ("8", 8, false),
                ("0", 1, false),
                ("1_0", 10, false),
                ("big", 64, true),
            ],
        );
        table(
            "COBRA_SERVE_INSTS_CAP",
            |c| c.serve_insts_cap,
            &[
                ("2_000_000", 2_000_000, false),
                ("0", 1, false),
                ("huge", 5_000_000, true),
            ],
        );
        table(
            "COBRA_SERVE_PROGRESS",
            |c| c.serve_progress,
            &[
                ("0", Some(0), false),
                ("5_000", Some(5_000), false),
                ("often", None, true),
            ],
        );
    }

    #[test]
    fn switch_knobs() {
        let spellings = |default: bool| {
            [
                ("1", true, false),
                ("on", true, false),
                ("TRUE", true, false),
                ("0", false, false),
                ("off", false, false),
                ("OFF", false, false),
                ("False", false, false),
                ("", default, false),
                ("yes", default, true),
            ]
        };
        table("COBRA_PLAN", |c| c.plan, &spellings(true));
        table(
            "COBRA_PLAN",
            |c| c.plan,
            &[("interpreter", false, false), ("Interpreter", false, false)],
        );
        table("COBRA_PROFILE", |c| c.profile, &spellings(false));
    }

    #[test]
    fn path_knobs() {
        let here = std::env::current_dir().expect("cwd");
        let here_s = here.to_str().expect("utf-8 cwd");
        let missing = "/nonexistent/cobra-config-test";
        for name in ["COBRA_TRACE_DIR", "COBRA_CKPT_DIR", "COBRA_SAMPLE_DIR"] {
            let field = |c: &RunConfig| match name {
                "COBRA_TRACE_DIR" => c.trace_dir.clone(),
                "COBRA_CKPT_DIR" => c.ckpt_dir.clone(),
                _ => c.sample_dir.clone(),
            };
            table(
                name,
                field,
                &[
                    (here_s, Some(here.clone()), false),
                    ("", None, false),
                    (missing, None, true),
                ],
            );
        }
        table(
            "COBRA_METRICS",
            |c| c.metrics.clone(),
            &[
                ("/tmp/m.jsonl", Some(PathBuf::from("/tmp/m.jsonl")), false),
                (" ", None, false),
            ],
        );
        table(
            "COBRA_INTERVAL_DIR",
            |c| c.interval_dir.clone(),
            &[
                ("/tmp/cbm", PathBuf::from("/tmp/cbm"), false),
                ("", PathBuf::from("metrics"), false),
            ],
        );
        table(
            "COBRA_GRID_JSON",
            |c| c.grid_json.clone(),
            &[
                ("/tmp/g.json", PathBuf::from("/tmp/g.json"), false),
                ("", PathBuf::from("results/bench_fig10.json"), false),
            ],
        );
        table(
            "COBRA_SERVE_CACHE",
            |c| c.serve_cache.clone(),
            &[
                ("/tmp/sc", Some(PathBuf::from("/tmp/sc")), false),
                ("", None, false),
                ("off", None, false),
                ("0", None, false),
                ("FALSE", None, false),
            ],
        );
    }

    #[test]
    fn every_bad_knob_warns_once() {
        let (_, warnings) = RunConfig::from_vars(|k| {
            (k.starts_with("COBRA_") && k != "COBRA_INTERVAL_DIR" && k != "COBRA_METRICS")
                .then(|| "bogus".to_string())
        });
        // The 8 integer knobs, the 2 switches and the 3 directories warn;
        // the other path knobs (and the cache root) take any value.
        assert_eq!(warnings.len(), 13, "{warnings:#?}");
    }

    #[test]
    fn run_spec_carries_the_switches() {
        let design = cobra_core::designs::b2();
        let spec = cobra_workloads::spec17::spec17("gcc");
        let (cfg, _) = RunConfig::from_vars(|k| match k {
            "COBRA_PLAN" => Some("off".into()),
            "COBRA_PROFILE" => Some("on".into()),
            _ => None,
        });
        let run = cfg.run_spec(&design, CoreConfig::boom_4wide(), &spec, 1000);
        assert!(!run.plan && run.profile);
        assert_eq!(run.measure, 1000);
    }
}
