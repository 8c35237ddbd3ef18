//! `cobra-sample` — derive, capture, evaluate, and gate phase-sampling
//! plans (see `docs/SAMPLING.md`).
//!
//! Phase sampling estimates a full run's MPKI/IPC from a handful of
//! representative interval slices, picked by clustering the `.cbm`
//! interval phase signatures (`cobra_bench::sampling`):
//!
//! ```text
//! cobra-sample plan gcc                      # cluster metrics/TAGE-L--gcc.cbm
//! cobra-sample plan --all --k 8 --out plans  # plans for the whole suite
//! cobra-sample ckpt gcc --plans plans        # slice checkpoints, all designs
//! cobra-sample run TAGE-L gcc --plans plans  # sampled estimate
//! cobra-sample run TAGE-L gcc --selfcheck    # ... next to the exact run
//! cobra-sample check --plans tests/golden/plans \
//!     --golden tests/golden/fig10_full.jsonl --bound 2.0
//! #                                          # the CI sampled-grid gate
//! cobra-sample check --bless                 # regenerate the golden file
//! ```
//!
//! `plan` clusters one workload's interval telemetry; the signatures
//! count committed CFIs, so a plan derived under any design transfers to
//! every design at the same `COBRA_INSTS`. `ckpt` captures per-slice
//! warm-state checkpoints so sampled runs restore exact state. `run`
//! evaluates one (design, workload) pair under a plan; `--selfcheck`
//! also runs the exact full simulation and prints the estimation error.
//! `check` gates sampled estimates for a whole grid against committed
//! golden full-run values — the CI leg that keeps the documented error
//! bound honest.
//!
//! Exit status: 0 on success (for `check`: every cell within the
//! bound), 1 on failure, 2 on a usage error.

use cobra_bench::run::{execute, RunSpec};
use cobra_bench::runner::parallel_map_on;
use cobra_bench::{
    jsonv,
    jsonv::Json,
    metrics_file_name,
    sampling::{
        derive_plan, load_plan, plan_file_name, render_plan, sample, slice_ckpt_name, SamplePlan,
    },
    workload_by_name, RunConfig,
};
use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_uarch::{read_metrics, CoreConfig};
use cobra_workloads::{ProgramSpec, SPEC17_NAMES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: cobra-sample COMMAND [OPTIONS] [WORKLOAD...]

Commands:
  plan    cluster .cbm interval telemetry into sampling plans
  ckpt    capture per-slice warm-state checkpoints for existing plans
  run     evaluate one design on one workload under a plan
  check   gate sampled estimates against golden full-run values

Common options:
  --all            every SPECint17 profile
  --plans DIR      plan (and slice-checkpoint) directory [tests/golden/plans]
  --designs CSV    comma-separated design names [every stock design]
  -h, --help       print this help

plan options:
  --metrics DIR    .cbm directory [COBRA_INTERVAL_DIR or metrics]
  --design NAME    design whose .cbm to cluster [TAGE-L]
  --k N            clusters (= slices) per workload [8]
  --seed N         clustering seed [42]
  --out DIR        where plans go [the --plans directory]

ckpt options:
  --out DIR        where slice checkpoints go [the --plans directory]

run options:
  --selfcheck      also run the exact full simulation and print the error

check options:
  --golden FILE    golden full-run JSONL [tests/golden/fig10_full.jsonl]
  --bound PCT      max |error| per cell, percent [2.0]
  --report FILE    write a JSON error report
  --bless          regenerate the golden file from exact full runs";

struct Options {
    rc: RunConfig,
    command: String,
    workloads: Vec<String>,
    designs: Option<Vec<String>>,
    plans: PathBuf,
    metrics: Option<PathBuf>,
    plan_design: String,
    k: usize,
    seed: u64,
    out: Option<PathBuf>,
    selfcheck: bool,
    golden: PathBuf,
    bound: f64,
    report: Option<PathBuf>,
    bless: bool,
}

fn parse_args(args: &[String], rc: RunConfig) -> Result<Option<Options>, String> {
    let mut it = args.iter();
    let command = match it.next() {
        Some(c) if c == "-h" || c == "--help" => {
            println!("{USAGE}");
            return Ok(None);
        }
        Some(c) => c.clone(),
        None => return Err("no command (try `--help`)".into()),
    };
    if !["plan", "ckpt", "run", "check"].contains(&command.as_str()) {
        return Err(format!("unknown command `{command}`"));
    }
    let mut o = Options {
        rc,
        command,
        workloads: Vec::new(),
        designs: None,
        plans: PathBuf::from("tests/golden/plans"),
        metrics: None,
        plan_design: "TAGE-L".into(),
        k: 8,
        seed: 42,
        out: None,
        selfcheck: false,
        golden: PathBuf::from("tests/golden/fig10_full.jsonl"),
        bound: 2.0,
        report: None,
        bless: false,
    };
    let mut all = false;
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--plans" => o.plans = PathBuf::from(need(&mut it, "--plans")?),
            "--designs" => {
                let v = need(&mut it, "--designs")?;
                o.designs = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--metrics" => o.metrics = Some(PathBuf::from(need(&mut it, "--metrics")?)),
            "--design" => o.plan_design = need(&mut it, "--design")?,
            "--k" => {
                let v = need(&mut it, "--k")?;
                o.k = v
                    .parse::<usize>()
                    .map_err(|_| format!("`--k {v}` is not a number"))?;
            }
            "--seed" => {
                let v = need(&mut it, "--seed")?;
                o.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("`--seed {v}` is not a number"))?;
            }
            "--out" => o.out = Some(PathBuf::from(need(&mut it, "--out")?)),
            "--selfcheck" => o.selfcheck = true,
            "--golden" => o.golden = PathBuf::from(need(&mut it, "--golden")?),
            "--bound" => {
                let v = need(&mut it, "--bound")?;
                o.bound = v
                    .parse::<f64>()
                    .map_err(|_| format!("`--bound {v}` is not a number"))?;
            }
            "--report" => o.report = Some(PathBuf::from(need(&mut it, "--report")?)),
            "--bless" => o.bless = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => o.workloads.push(other.to_string()),
        }
    }
    if all {
        for n in SPEC17_NAMES {
            if !o.workloads.iter().any(|w| w.eq_ignore_ascii_case(n)) {
                o.workloads.push((*n).to_string());
            }
        }
    }
    Ok(Some(o))
}

fn selected_designs(o: &Options) -> Result<Vec<Design>, String> {
    match &o.designs {
        Some(names) => names
            .iter()
            .map(|n| {
                designs::all()
                    .into_iter()
                    .find(|d| d.name.eq_ignore_ascii_case(n))
                    .ok_or_else(|| format!("unknown design `{n}`"))
            })
            .collect(),
        None => Ok(designs::all()),
    }
}

/// The workloads a plans directory holds plans for, sorted.
fn planned_workloads(plans: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(plans) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(w) = name.strip_suffix(".plan.json") {
                out.push(w.to_string());
            }
        }
    }
    out.sort();
    out
}

fn resolve_workloads(o: &Options) -> Result<Vec<(String, ProgramSpec)>, String> {
    let names = if o.workloads.is_empty() {
        let planned = planned_workloads(&o.plans);
        if planned.is_empty() {
            return Err(format!(
                "no workloads named and no plans in {} (try `--all`)",
                o.plans.display()
            ));
        }
        planned
    } else {
        o.workloads.clone()
    };
    names
        .into_iter()
        .map(|n| {
            workload_by_name(&n)
                .map(|s| (n.clone(), s))
                .ok_or_else(|| format!("unknown workload `{n}`"))
        })
        .collect()
}

/// `plan`: cluster each workload's `.cbm` into a sampling plan.
fn cmd_plan(o: &Options) -> Result<(), String> {
    if o.workloads.is_empty() {
        return Err("no workloads named (try `--all`)".into());
    }
    let metrics = o.metrics.as_ref().unwrap_or(&o.rc.interval_dir);
    let out = o.out.clone().unwrap_or_else(|| o.plans.clone());
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for w in &o.workloads {
        let cbm_path = metrics.join(metrics_file_name(&o.plan_design, w));
        let file = std::fs::File::open(&cbm_path).map_err(|e| {
            format!(
                "{}: {e} (run the grid with COBRA_INTERVAL set first)",
                cbm_path.display()
            )
        })?;
        let cbm = read_metrics(std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", cbm_path.display()))?;
        let plan = derive_plan(&cbm, o.k, o.seed).map_err(|e| format!("{w}: {e}"))?;
        let path = out.join(plan_file_name(w));
        std::fs::write(&path, render_plan(&plan))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {w:<14} {} intervals -> {} slices ({:.1}% of run)  -> {}",
            cbm.records.len(),
            plan.slices.len(),
            plan.slices.iter().map(|s| s.len).sum::<u64>() as f64 * 100.0
                / plan.total_insts.max(1) as f64,
            path.display()
        );
    }
    Ok(())
}

/// Captures every slice checkpoint for one (design, workload) plan in a
/// single forward pass: the slices are start-ordered, and `Core::run`
/// stops on the first cycle at or past each requested commit boundary.
///
/// Boundaries recorded under the plan's telemetry design are exactly
/// reachable under that design, but a different superscalar design can
/// bunch commits differently and overshoot by up to a commit-width of
/// instructions — tolerated here (the estimator scales by the plan's
/// slice length, so a packet-width offset is noise, not skew). A stop
/// *short* of the boundary still fails: the workload ended early, so the
/// plan genuinely does not match.
fn capture_slices(
    rc: &RunConfig,
    design: &Design,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    out: &Path,
) -> Result<u64, String> {
    let saves: Vec<(u64, PathBuf)> = plan
        .slices
        .iter()
        .map(|s| {
            let name = slice_ckpt_name(&design.name, &spec.name, s.seq);
            (s.start_inst, out.join(name))
        })
        .collect();
    let outcome = execute(RunSpec {
        warmup: saves.last().map_or(0, |&(at, _)| at),
        measure: 0,
        saves,
        ..rc.run_spec(design, CoreConfig::boom_4wide(), spec, 0)
    })
    .map_err(|e| e.to_string())?;
    Ok(outcome.saved.iter().map(|&(_, bytes)| bytes).sum())
}

/// `ckpt`: capture slice checkpoints for every (design, workload) pair.
fn cmd_ckpt(o: &Options) -> Result<bool, String> {
    let designs = selected_designs(o)?;
    let specs = resolve_workloads(o)?;
    let out = o.out.clone().unwrap_or_else(|| o.plans.clone());
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut jobs = Vec::new();
    for (name, spec) in &specs {
        let plan = load_plan(&o.plans.join(plan_file_name(name)))?;
        for d in &designs {
            jobs.push((d, spec, plan.clone()));
        }
    }
    let results = parallel_map_on(o.rc.threads, &jobs, |_, (d, spec, plan)| {
        let t0 = Instant::now();
        let r = capture_slices(&o.rc, d, spec, plan, &out);
        (r, t0.elapsed().as_secs_f64())
    });
    let mut ok = true;
    for ((d, spec, plan), (r, wall)) in jobs.iter().zip(&results) {
        match r {
            Ok(bytes) => println!(
                "  {:<12} {:<14} {:>2} slices {:>9} bytes  {wall:>6.2}s",
                d.name,
                spec.name,
                plan.slices.len(),
                bytes
            ),
            Err(e) => {
                eprintln!("cobra-sample: {}/{}: {e}", d.name, spec.name);
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// The exact full run a plan's estimate approximates, at the plan's own
/// warmup boundary and the current `COBRA_INSTS` measured length.
fn run_full(
    rc: &RunConfig,
    design: &Design,
    spec: &ProgramSpec,
    plan: &SamplePlan,
) -> Result<f64, String> {
    let outcome = execute(RunSpec {
        warmup: plan.warmup_insts,
        ..rc.run_spec(design, CoreConfig::boom_4wide(), spec, rc.insts)
    })
    .map_err(|e| e.to_string())?;
    Ok(outcome.report.counters.mpki())
}

/// `run`: sampled estimate for one (design, workload), optionally next
/// to the exact run.
fn cmd_run(o: &Options) -> Result<bool, String> {
    let (design_name, workload) = match o.workloads.as_slice() {
        [d, w] => (d.clone(), w.clone()),
        _ => return Err("`run` takes exactly DESIGN WORKLOAD".into()),
    };
    let design =
        designs::by_name(&design_name).ok_or_else(|| format!("unknown design `{design_name}`"))?;
    let spec =
        workload_by_name(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let plan = load_plan(&o.plans.join(plan_file_name(&workload)))?;
    let t0 = Instant::now();
    let (rc, cfg) = (&o.rc, CoreConfig::boom_4wide());
    let outcome =
        sample(rc, &design, cfg, &spec, &plan, Some(&o.plans)).map_err(|e| e.to_string())?;
    let sampled_wall = t0.elapsed().as_secs_f64();
    println!(
        "{} on {}: {} slices ({} mode), est MPKI {:.4}, est IPC {:.4}, {sampled_wall:.2}s",
        design.name,
        workload,
        plan.slices.len(),
        outcome.mode.as_str(),
        outcome.estimate.mpki(),
        outcome.estimate.ipc()
    );
    if o.selfcheck {
        let t1 = Instant::now();
        let full_mpki = run_full(&o.rc, &design, &spec, &plan)?;
        let full_wall = t1.elapsed().as_secs_f64();
        let err = err_pct(outcome.estimate.mpki(), full_mpki);
        println!(
            "  exact MPKI {full_mpki:.4} ({full_wall:.2}s) -> error {err:.3}%  speedup {:.1}x",
            full_wall / sampled_wall.max(1e-9)
        );
    }
    Ok(true)
}

/// Relative error in percent; falls back to absolute error when the
/// reference is (numerically) zero.
fn err_pct(est: f64, golden: f64) -> f64 {
    if golden.abs() < 1e-9 {
        (est - golden).abs() * 100.0
    } else {
        (est - golden).abs() * 100.0 / golden.abs()
    }
}

struct GoldenCell {
    design: String,
    workload: String,
    insts: u64,
    mpki: f64,
}

fn read_golden(path: &Path) -> Result<Vec<GoldenCell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = jsonv::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("{}:{}: missing {k:?}", path.display(), i + 1))
        };
        out.push(GoldenCell {
            design: s("design")?,
            workload: s("workload")?,
            insts: v
                .get("insts")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{}:{}: missing \"insts\"", path.display(), i + 1))?,
            mpki: v
                .get("mpki")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{}:{}: missing \"mpki\"", path.display(), i + 1))?,
        });
    }
    Ok(out)
}

/// `check --bless`: regenerate the golden full-run JSONL.
fn cmd_bless(o: &Options) -> Result<(), String> {
    let designs = selected_designs(o)?;
    let specs = resolve_workloads(o)?;
    let insts = o.rc.insts;
    let mut jobs = Vec::new();
    for (name, spec) in &specs {
        let plan = load_plan(&o.plans.join(plan_file_name(name)))?;
        for d in &designs {
            jobs.push((d, spec, plan.clone()));
        }
    }
    let rc = &o.rc;
    let results = parallel_map_on(rc.threads, &jobs, |_, (d, spec, plan)| {
        run_full(rc, d, spec, plan)
    });
    let mut lines = Vec::new();
    for ((d, spec, _), r) in jobs.iter().zip(&results) {
        let mpki = r
            .as_ref()
            .map_err(|e| format!("{}/{}: {e}", d.name, spec.name))?;
        lines.push(format!(
            "{{\"design\":{},\"workload\":{},\"insts\":{insts},\"mpki\":{mpki:.6}}}",
            cobra_bench::jsonv::escape(&d.name),
            cobra_bench::jsonv::escape(&spec.name),
        ));
    }
    lines.sort();
    if let Some(dir) = o.golden.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&o.golden, lines.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", o.golden.display()))?;
    println!(
        "blessed {} golden cell(s) at COBRA_INSTS={insts} -> {}",
        lines.len(),
        o.golden.display()
    );
    Ok(())
}

/// `check`: sampled estimates vs the golden full-run values.
fn cmd_check(o: &Options) -> Result<bool, String> {
    if o.bless {
        cmd_bless(o)?;
        return Ok(true);
    }
    let golden = read_golden(&o.golden)?;
    if golden.is_empty() {
        return Err(format!("{}: no golden cells", o.golden.display()));
    }
    let insts = o.rc.insts;
    for c in &golden {
        if c.insts != insts {
            return Err(format!(
                "golden cell {}/{} was blessed at {} insts but COBRA_INSTS={insts} \
                 — rerun with the matching scale or re-bless",
                c.design, c.workload, c.insts
            ));
        }
    }
    let all = designs::all();
    let mut jobs = Vec::new();
    for c in &golden {
        let d = all
            .iter()
            .find(|d| d.name == c.design)
            .ok_or_else(|| format!("golden names unknown design `{}`", c.design))?;
        let spec = workload_by_name(&c.workload)
            .ok_or_else(|| format!("golden names unknown workload `{}`", c.workload))?;
        let plan = load_plan(&o.plans.join(plan_file_name(&c.workload)))?;
        jobs.push((d, spec, plan, c));
    }
    let rc = &o.rc;
    let results = parallel_map_on(rc.threads, &jobs, |_, (d, spec, plan, _)| {
        sample(rc, d, CoreConfig::boom_4wide(), spec, plan, Some(&o.plans))
    });
    let mut cells = Vec::new();
    let mut max_err = 0.0f64;
    let mut failed = 0usize;
    println!(
        "{:<12} {:<14} {:>6} {:>10} {:>10} {:>8}",
        "design", "workload", "mode", "golden", "sampled", "err %"
    );
    for ((d, spec, _, c), r) in jobs.iter().zip(&results) {
        let outcome = r
            .as_ref()
            .map_err(|e| format!("{}/{}: {e}", d.name, spec.name))?;
        let est = outcome.estimate.mpki();
        let err = err_pct(est, c.mpki);
        max_err = max_err.max(err);
        let over = err > o.bound;
        if over {
            failed += 1;
        }
        println!(
            "{:<12} {:<14} {:>6} {:>10.4} {:>10.4} {:>8.3}{}",
            d.name,
            spec.name,
            outcome.mode.as_str(),
            c.mpki,
            est,
            err,
            if over { "  OVER BOUND" } else { "" }
        );
        cells.push(format!(
            "    {{\"design\":{},\"workload\":{},\"mode\":{},\"golden_mpki\":{:.6},\
             \"est_mpki\":{est:.6},\"err_pct\":{err:.4}}}",
            cobra_bench::jsonv::escape(&d.name),
            cobra_bench::jsonv::escape(&spec.name),
            cobra_bench::jsonv::escape(outcome.mode.as_str()),
            c.mpki
        ));
    }
    let pass = failed == 0;
    println!(
        "{} cell(s), max error {max_err:.3}% (bound {:.3}%): {}",
        jobs.len(),
        o.bound,
        if pass { "PASS" } else { "FAIL" }
    );
    if let Some(path) = &o.report {
        let report = format!(
            "{{\n  \"format\":\"cobra-sample-check-v1\",\n  \"insts\":{insts},\n  \
             \"bound_pct\":{:.4},\n  \"max_err_pct\":{max_err:.4},\n  \
             \"pass\":{pass},\n  \"cells\":[\n{}\n  ]\n}}\n",
            o.bound,
            cells.join(",\n")
        );
        std::fs::write(path, report).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("error report -> {}", path.display());
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args, RunConfig::from_env()) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cobra-sample: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Sampled runs must not recurse into the sampled env arm.
    if o.rc.sample_dir.is_some() {
        eprintln!("cobra-sample: note: COBRA_SAMPLE_DIR is ignored here (plans come from --plans)");
    }
    let outcome = match o.command.as_str() {
        "plan" => cmd_plan(&o).map(|()| true),
        "ckpt" => cmd_ckpt(&o),
        "run" => cmd_run(&o),
        "check" => cmd_check(&o),
        _ => unreachable!("parse_args validated the command"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cobra-sample: {e}");
            ExitCode::FAILURE
        }
    }
}
