//! The three Fig 10 grid workloads: `fig10-exec`, `fig10-restored` and
//! `fig10-sampled`.
//!
//! An untraced run times `runner::run_grid_on`, the path the harness
//! binaries take, over whole passes of the grid and checks every cell's
//! report against its reference. A traced run makes one untraced runner
//! pass, then repeats the same cells through the layers' public
//! functions with a span around each call and the [`Timed`] stream
//! adapter inside the core, and checks that both passes rendered the
//! same bytes.

use crate::stats::{median, tail, Reconcile};
use crate::timed::{StreamCost, Timed};
use crate::{peak_rss_mb, shuffle, Config, Run, Workload, SETUP_REPS};
use cobra_bench::jsonv::{self, Json};
use cobra_bench::runner::{parallel_map_on, run_grid_on, Job};
use cobra_bench::sampling::{self, SamplePlan};
use cobra_bench::serve::protocol::{report_bytes, report_json};
use cobra_bench::{capture_workload, ckpt_file_name};
use cobra_core::analysis::{analyze_topology, AnalysisConfig};
use cobra_core::composer::{BpuStats, Design};
use cobra_uarch::{
    restore_checkpoint, save_checkpoint, CbsMeta, Core, CoreConfig, InstructionStream,
    PerfCounters, PerfReport, TraceSim,
};
use cobra_workloads::{spec17, ProgramSpec, TraceProgram, SPEC17_NAMES};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The measured length the committed sampling plans were derived at;
/// the runner asserts a plan's warm-up boundary against it.
pub const PLAN_INSTS: u64 = 500_000;
const PLANS_DIR: &str = "crates/bench/tests/golden/plans";
const GOLDEN_FULL: &str = "crates/bench/tests/golden/fig10_full.jsonl";
const FIG10_TXT: &str = "results/fig10_spec.txt";
const SAMPLED_REF: &str = "perfbench/ref/fig10_sampled.jsonl";
/// The sampled-grid accuracy bound CI holds the committed plans to.
const SAMPLED_BOUND_PCT: f64 = 10.0;
/// Captures whose median is `fig10-restored`'s `setup_s`
/// (`fig10-sampled` captures 250 MB, once).
const CAPTURE_REPS: usize = 5;
/// Layer-sum tolerance: spans around consecutive calls must cover a
/// cell's wall clock to within 2 % or 1 ms per cell.
const COVER_REL: f64 = 0.02;
const COVER_ABS_PER_CELL_S: f64 = 0.001;
/// The traced replay of a sampled cell against `run_sampled` on the same
/// cell next to it: two executions, so the tolerance absorbs host noise
/// between them and the adapter's overhead.
const SAMPLED_REL: f64 = 0.15;
/// `analyze_topology` calls per topology; the median is reported.
const ANALYSIS_REPS: usize = 21;

fn cfg_core() -> CoreConfig {
    CoreConfig::boom_4wide()
}

fn warmup_for(measure: u64) -> u64 {
    measure * 2 / 5
}

/// Designs × profiles, with the cells the run covers.
struct Grid {
    designs: Vec<Design>,
    specs: Vec<ProgramSpec>,
    /// `(design index, spec index)`, design-major unless the seed
    /// permutes them.
    cells: Vec<(usize, usize)>,
}

impl Grid {
    fn new(cfg: &Config) -> Grid {
        let designs = cobra_core::designs::all();
        let specs: Vec<ProgramSpec> = SPEC17_NAMES
            .iter()
            .map(|w| {
                let mut s = spec17(w);
                if let Some(n) = cfg.program_seed {
                    s.seed = cobra_sim::bits::mix64(s.seed ^ n);
                }
                s
            })
            .collect();
        let mut cells: Vec<(usize, usize)> = (0..designs.len())
            .flat_map(|d| (0..specs.len()).map(move |s| (d, s)))
            .collect();
        if let Some(n) = cfg.seed {
            shuffle(&mut cells, &mut cobra_sim::SplitMix64::new(n));
        }
        cells.truncate(cfg.cells);
        Grid {
            designs,
            specs,
            cells,
        }
    }

    fn cell(&self, i: usize) -> (&Design, &ProgramSpec) {
        let (d, s) = self.cells[i];
        (&self.designs[d], &self.specs[s])
    }

    fn label(&self, i: usize) -> String {
        let (d, s) = self.cell(i);
        format!("{}/{}", d.name, s.name)
    }

    fn jobs(&self) -> Vec<Job<'_>> {
        (0..self.cells.len())
            .map(|i| {
                let (d, s) = self.cell(i);
                Job::new(d, cfg_core(), s)
            })
            .collect()
    }

    /// The profiles the covered cells use, each once.
    fn used_specs(&self) -> Vec<&ProgramSpec> {
        let mut idx: Vec<usize> = self.cells.iter().map(|&(_, s)| s).collect();
        idx.sort_unstable();
        idx.dedup();
        idx.into_iter().map(|s| &self.specs[s]).collect()
    }
}

/// Points the runner's environment at this run's inputs. Called before
/// any worker thread starts.
fn set_env(
    insts: u64,
    trace_dir: Option<&Path>,
    ckpt_dir: Option<&Path>,
    sample_dir: Option<&Path>,
) {
    for k in [
        "COBRA_TRACE",
        "COBRA_METRICS",
        "COBRA_INTERVAL",
        "COBRA_PROGRESS",
        "COBRA_PLAN",
        "COBRA_PROFILE",
        "COBRA_SANITIZE",
        "COBRA_VERIFY_PLAN",
        "COBRA_SAMPLE_WARMUP",
        "COBRA_THREADS",
    ] {
        std::env::remove_var(k);
    }
    std::env::set_var("COBRA_INSTS", insts.to_string());
    for (k, v) in [
        ("COBRA_TRACE_DIR", trace_dir),
        ("COBRA_CKPT_DIR", ckpt_dir),
        ("COBRA_SAMPLE_DIR", sample_dir),
    ] {
        match v {
            Some(p) => std::env::set_var(k, p),
            None => std::env::remove_var(k),
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Inputs the restored and sampled paths read, captured in set-up.
struct Inputs {
    trace_dir: Option<PathBuf>,
    ckpt_dir: Option<PathBuf>,
    sample_dir: Option<PathBuf>,
    plans: Vec<Option<SamplePlan>>,
    /// `(seconds, bytes)` per checkpoint saved in the last capture.
    saves: Vec<(f64, u64)>,
}

/// Runs the workload `cfg` names.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let grid = Grid::new(cfg);
    if cfg.workload == Workload::Sampled && cfg.insts != PLAN_INSTS {
        return Err(format!(
            "fig10-sampled runs the committed plans, derived at {PLAN_INSTS} instructions"
        ));
    }
    let mut run = Run::default();
    let (setup_s, inputs) = setup(cfg, &grid)?;
    set_env(
        cfg.insts,
        inputs.trace_dir.as_deref(),
        inputs.ckpt_dir.as_deref(),
        inputs.sample_dir.as_deref(),
    );
    let jobs = grid.jobs();
    if cfg.trace {
        traced(cfg, &grid, &jobs, &inputs, &mut run)?;
    } else {
        untraced(cfg, &grid, &jobs, setup_s, &mut run)?;
    }
    Ok(run)
}

fn setup(cfg: &Config, grid: &Grid) -> Result<(f64, Inputs), String> {
    let mut inputs = Inputs {
        trace_dir: None,
        ckpt_dir: None,
        sample_dir: None,
        plans: Vec::new(),
        saves: Vec::new(),
    };
    let mut times = Vec::new();
    match cfg.workload {
        Workload::Serve => unreachable!("serve-mixed starts daemons, not grids"),
        Workload::Exec => {
            // Composing the designs and generating the programs: the
            // per-cell start-up the execution-driven path pays.
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                for spec in grid.used_specs() {
                    let mut program = spec.build();
                    for d in &grid.designs {
                        let core = Core::new(d, cfg_core(), &mut program)
                            .map_err(|e| format!("{}: {e}", d.name))?;
                        std::hint::black_box(&core);
                    }
                }
                times.push(secs(t));
            }
        }
        Workload::Restored => {
            for rep in 0..CAPTURE_REPS {
                let dir = cfg.work.join(format!("setup{rep}"));
                if rep > 0 {
                    let _ = std::fs::remove_dir_all(cfg.work.join(format!("setup{}", rep - 1)));
                }
                let t = Instant::now();
                capture_restored(cfg, grid, &dir, &mut inputs)?;
                times.push(secs(t));
            }
        }
        Workload::Sampled => {
            let t = Instant::now();
            capture_sampled(cfg, grid, &cfg.work.join("sample"), &mut inputs)?;
            times.push(secs(t));
        }
    }
    Ok((median(&times), inputs))
}

/// Captures a `.cbt` per profile and a warm-up `.cbs` per cell under
/// `dir`, pointing `inputs` at them.
fn capture_restored(
    cfg: &Config,
    grid: &Grid,
    dir: &Path,
    inputs: &mut Inputs,
) -> Result<(), String> {
    let traces = dir.join("traces");
    let ckpts = dir.join("ckpts");
    for d in [&traces, &ckpts] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let specs = grid.used_specs();
    parallel_map_on(cfg.threads, &specs, |_, spec| {
        capture_workload(spec, cfg.insts, &traces)
            .map(|_| ())
            .map_err(|e| format!("capture {}: {e}", spec.name))
    })
    .into_iter()
    .collect::<Result<(), String>>()?;
    let warmup = warmup_for(cfg.insts);
    let saves = parallel_map_on(cfg.threads, &grid.cells, |i, _| {
        let (d, spec) = grid.cell(i);
        let mut core = Core::new(d, cfg_core(), spec.build()).map_err(|e| e.to_string())?;
        core.run(warmup, &spec.name);
        let meta = CbsMeta::for_run(d, &cfg_core(), &spec.name, warmup);
        let path = ckpts.join(ckpt_file_name(&d.name, &spec.name));
        save(&path, &meta, &core)
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    inputs.trace_dir = Some(traces);
    inputs.ckpt_dir = Some(ckpts);
    inputs.saves = saves;
    Ok(())
}

fn save<S: InstructionStream>(
    path: &Path,
    meta: &CbsMeta,
    core: &Core<S>,
) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bytes = save_checkpoint(BufWriter::new(file), meta, core)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((secs(t), bytes))
}

fn load_plans(grid: &Grid) -> Result<Vec<Option<SamplePlan>>, String> {
    grid.specs
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            if !grid.cells.iter().any(|&(_, cs)| cs == s) {
                return Ok(None);
            }
            let path = Path::new(PLANS_DIR).join(sampling::plan_file_name(&spec.name));
            sampling::load_plan(&path).map(Some)
        })
        .collect()
}

/// Copies the committed plans into `dir` and captures every slice
/// checkpoint there, as `cobra-sample ckpt` does, pointing `inputs` at
/// them.
fn capture_sampled(
    cfg: &Config,
    grid: &Grid,
    dir: &Path,
    inputs: &mut Inputs,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let plans = load_plans(grid)?;
    for (spec, plan) in grid.specs.iter().zip(&plans) {
        if plan.is_some() {
            let name = sampling::plan_file_name(&spec.name);
            std::fs::copy(Path::new(PLANS_DIR).join(&name), dir.join(&name))
                .map_err(|e| format!("{name}: {e}"))?;
        }
    }
    let per_cell = parallel_map_on(cfg.threads, &grid.cells, |i, &(_, s)| {
        let (d, spec) = grid.cell(i);
        let plan = plans[s].as_ref().expect("plans cover every cell");
        let mut core = Core::new(d, cfg_core(), spec.build()).map_err(|e| e.to_string())?;
        let mut saves = Vec::new();
        for slice in &plan.slices {
            core.run(slice.start_inst, &spec.name);
            if core.counters().committed_insts < slice.start_inst {
                return Err(format!(
                    "{}: slice s{} is unreachable",
                    grid.label(i),
                    slice.seq
                ));
            }
            let meta = CbsMeta::for_run(d, &cfg_core(), &spec.name, slice.start_inst);
            let path = dir.join(sampling::slice_ckpt_name(&d.name, &spec.name, slice.seq));
            saves.push(save(&path, &meta, &core)?);
        }
        Ok(saves)
    });
    inputs.saves.clear();
    for r in per_cell {
        inputs.saves.extend(r?);
    }
    inputs.sample_dir = Some(dir.to_path_buf());
    inputs.plans = plans;
    Ok(())
}

/// One timed runner pass per loop until `--seconds` have passed.
struct Passes {
    walls: Vec<f64>,
    cell_walls: Vec<Vec<f64>>,
    reports: Vec<Vec<PerfReport>>,
    total_s: f64,
}

fn runner_passes(cfg: &Config, jobs: &[Job<'_>]) -> Passes {
    let mut p = Passes {
        walls: Vec::new(),
        cell_walls: Vec::new(),
        reports: Vec::new(),
        total_s: 0.0,
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let results = run_grid_on(cfg.threads, jobs);
        p.walls.push(secs(t));
        p.cell_walls
            .push(results.iter().map(|r| r.wall.as_secs_f64()).collect());
        p.reports
            .push(results.into_iter().map(|r| r.report).collect());
        if secs(start) >= cfg.seconds {
            break;
        }
    }
    p.total_s = secs(start);
    p
}

/// The execution-driven reports, simulated directly through `Core`.
fn direct_reports(cfg: &Config, grid: &Grid) -> Vec<String> {
    let warmup = warmup_for(cfg.insts);
    parallel_map_on(cfg.threads, &grid.cells, |i, _| {
        let (d, spec) = grid.cell(i);
        let mut core = Core::new(d, cfg_core(), spec.build()).expect("stock designs compose");
        report_json(&core.run_with_warmup(warmup, cfg.insts, &spec.name))
    })
}

fn check_cells(run: &mut Run, what: &str, grid: &Grid, got: &[String], want: &[String]) {
    run.attempted += got.len() as u64;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            run.failed += 1;
            run.error(format!(
                "{what}: {} differs from its reference",
                grid.label(i)
            ));
        }
    }
}

fn rendered(reports: &[PerfReport]) -> Vec<String> {
    reports.iter().map(report_json).collect()
}

fn untraced(
    cfg: &Config,
    grid: &Grid,
    jobs: &[Job<'_>],
    setup_s: f64,
    run: &mut Run,
) -> Result<(), String> {
    // The exact paths' references are simulated first, which also warms
    // the hot path before the timed passes.
    let want = match cfg.workload {
        Workload::Sampled => Vec::new(),
        _ => direct_reports(cfg, grid),
    };
    let passes = runner_passes(cfg, jobs);
    match cfg.workload {
        Workload::Sampled => {
            let recorded = read_sampled_record(grid, cfg.bless)?;
            for reports in &passes.reports {
                let got = rendered(reports);
                if cfg.bless {
                    write_sampled_record(grid, &got)?;
                    run.notes.push(format!(
                        "recorded {} sampled cells to {SAMPLED_REF}",
                        got.len()
                    ));
                    break;
                }
                check_cells(run, "sampled estimate vs record", grid, &got, &recorded);
            }
            sampled_error(grid, &passes.reports[0], run)?;
        }
        _ => {
            let what = match cfg.workload {
                Workload::Restored => "restored vs execution-driven",
                _ => "runner vs direct",
            };
            for reports in &passes.reports {
                check_cells(run, what, grid, &rendered(reports), &want);
            }
            golden_check(cfg, grid, &passes.reports[0], run)?;
        }
    }
    let insts: u64 = passes.reports[0]
        .iter()
        .map(|r| r.counters.committed_insts)
        .sum();
    let wall = median(&passes.walls);
    let cells = passes.cell_walls.iter().map(Vec::len).sum::<usize>();
    let p50: Vec<f64> = passes.cell_walls.iter().map(|c| median(c)).collect();
    let tails: Vec<(f64, f64)> = passes.cell_walls.iter().filter_map(|c| tail(c)).collect();
    run.set("setup_s", setup_s);
    run.set("wall_s", wall);
    run.set("sim_mips", insts as f64 / wall / 1e6);
    run.set("req_p50_ms", median(&p50) * 1e3);
    let tail_ms = if tails.is_empty() {
        // Fewer than eleven cells: no percentile has ten beyond it, so
        // the slowest cell stands in.
        passes
            .cell_walls
            .iter()
            .map(|c| c.iter().copied().fold(0.0, f64::max))
            .fold(0.0, f64::max)
    } else {
        median(&tails.iter().map(|t| t.0).collect::<Vec<_>>())
    };
    run.set("req_tail_ms", tail_ms * 1e3);
    run.set("req_per_s", cells as f64 / passes.total_s);
    run.set("peak_rss_mb", peak_rss_mb("self"));
    let cycles: u64 = passes.reports[0].iter().map(|r| r.counters.cycles).sum();
    run.notes.push(format!(
        "passes {} pass_walls_s {:?} cells_per_pass {} cycles_per_pass {cycles} tail_percentile {:.1}",
        passes.walls.len(),
        passes.walls,
        grid.cells.len(),
        tails.first().map_or(100.0, |t| t.1)
    ));
    Ok(())
}

fn read_sampled_record(grid: &Grid, bless: bool) -> Result<Vec<String>, String> {
    if bless {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(SAMPLED_REF).map_err(|e| format!("{SAMPLED_REF}: {e}"))?;
    let mut by_cell = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = jsonv::parse(line).map_err(|e| format!("{SAMPLED_REF}: {e}"))?;
        let cell = v
            .get("cell")
            .and_then(Json::as_str)
            .ok_or(format!("{SAMPLED_REF}: a line lacks \"cell\""))?
            .to_string();
        let report = report_bytes(line).ok_or(format!("{SAMPLED_REF}: {cell} lacks \"report\""))?;
        by_cell.insert(cell, report.to_string());
    }
    (0..grid.cells.len())
        .map(|i| {
            by_cell
                .get(&grid.label(i))
                .cloned()
                .ok_or(format!("{SAMPLED_REF} has no record of {}", grid.label(i)))
        })
        .collect()
}

fn write_sampled_record(grid: &Grid, reports: &[String]) -> Result<(), String> {
    let mut lines: Vec<String> = reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "{{\"cell\":{},\"report\":{r}}}",
                jsonv::escape(&grid.label(i))
            )
        })
        .collect();
    lines.sort();
    std::fs::write(SAMPLED_REF, lines.join("\n") + "\n").map_err(|e| format!("{SAMPLED_REF}: {e}"))
}

/// `(design, workload) -> mpki` from the committed full-run golden file.
fn golden_mpki() -> Result<std::collections::BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(GOLDEN_FULL).map_err(|e| format!("{GOLDEN_FULL}: {e}"))?;
    let mut out = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = jsonv::parse(line).map_err(|e| format!("{GOLDEN_FULL}: {e}"))?;
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(String::from);
        let (Some(d), Some(w), Some(m)) = (
            s("design"),
            s("workload"),
            v.get("mpki").and_then(Json::as_num),
        ) else {
            return Err(format!("{GOLDEN_FULL}: malformed line {line:?}"));
        };
        out.insert((d, w), m);
    }
    Ok(out)
}

/// Sampled estimates against the golden full runs: within the CI bound
/// (a cell outside it fails the run), reported as `sample_err_*_pct`.
fn sampled_error(grid: &Grid, reports: &[PerfReport], run: &mut Run) -> Result<(f64, f64), String> {
    let golden = golden_mpki()?;
    let mut errs = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        let g = golden
            .get(&(r.design.clone(), r.workload.clone()))
            .ok_or(format!("{GOLDEN_FULL} has no cell {}", grid.label(i)))?;
        let err = (r.counters.mpki() - g).abs() * 100.0 / g;
        if err > SAMPLED_BOUND_PCT {
            run.error(format!(
                "sampled {}: MPKI error {err:.3}% exceeds the {SAMPLED_BOUND_PCT}% bound",
                grid.label(i)
            ));
        }
        errs.push(err);
    }
    let max = errs.iter().copied().fold(0.0, f64::max);
    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    run.notes.push(format!(
        "sample_err_max_pct {max:.6} sample_err_mean_pct {mean:.6} over {} cells (bound {SAMPLED_BOUND_PCT}%)",
        errs.len()
    ));
    Ok((max, mean))
}

/// At the committed scale and seeds, the grid must also reproduce the
/// golden full-run MPKI and the `fig10_spec` tables.
fn golden_check(
    cfg: &Config,
    grid: &Grid,
    reports: &[PerfReport],
    run: &mut Run,
) -> Result<(), String> {
    if cfg.insts != PLAN_INSTS || cfg.program_seed.is_some() {
        return Ok(());
    }
    let golden = golden_mpki()?;
    let table = fig10_table()?;
    for (i, r) in reports.iter().enumerate() {
        let key = (r.design.clone(), r.workload.clone());
        let (d, _) = grid.cells[i];
        let mpki = r.counters.mpki();
        if golden.get(&key).map(|g| format!("{g:.6}")) != Some(format!("{mpki:.6}")) {
            run.error(format!(
                "{}: MPKI {mpki:.6} differs from {GOLDEN_FULL}",
                grid.label(i)
            ));
        }
        let want = table.get(&(r.workload.clone(), d));
        let got = (format!("{mpki:.2}"), format!("{:.3}", r.counters.ipc()));
        if want != Some(&got) {
            run.error(format!(
                "{}: MPKI/IPC {got:?} differ from {FIG10_TXT} {want:?}",
                grid.label(i)
            ));
        }
    }
    run.notes.push(format!(
        "golden cross-check against {GOLDEN_FULL} and {FIG10_TXT} done"
    ));
    Ok(())
}

/// `(workload, design index) -> (MPKI to 2 places, IPC to 3 places)` as
/// printed in `results/fig10_spec.txt`.
type Fig10Table = std::collections::BTreeMap<(String, usize), (String, String)>;

/// Reads [`Fig10Table`] from `results/fig10_spec.txt`.
fn fig10_table() -> Result<Fig10Table, String> {
    let text = std::fs::read_to_string(FIG10_TXT).map_err(|e| format!("{FIG10_TXT}: {e}"))?;
    let mut mpki = std::collections::BTreeMap::new();
    let mut ipc = std::collections::BTreeMap::new();
    let mut in_ipc = false;
    for line in text.lines() {
        if line.starts_with("FIG 10") {
            in_ipc = line.contains("IPC");
            continue;
        }
        let tok: Vec<&str> = line.split_whitespace().collect();
        if tok.len() < 4 || !SPEC17_NAMES.contains(&tok[0]) {
            continue;
        }
        let table = if in_ipc { &mut ipc } else { &mut mpki };
        for d in 0..3 {
            table.insert((tok[0].to_string(), d), tok[1 + d].to_string());
        }
    }
    Ok(mpki
        .into_iter()
        .filter_map(|(k, m)| ipc.get(&k).map(|i| (k, (m, i.clone()))))
        .collect())
}

/// Spans and counts of the traced cells, summed.
#[derive(Default, Clone)]
struct Span {
    cell_s: f64,
    build_s: f64,
    new_s: f64,
    open_s: f64,
    restore_s: f64,
    run_s: f64,
    news: Vec<f64>,
    opens: Vec<f64>,
    restores: Vec<f64>,
    /// Committed instructions and cycles simulated inside the timed
    /// `run`/`run_with_warmup` calls.
    sim_insts: u64,
    sim_cycles: u64,
    /// Measured-region counters (the report's, or the slice deltas').
    meas_insts: u64,
    meas_cycles: u64,
    meas_bubbles: u64,
    meas_overrides: u64,
    cost: StreamCost,
    bpu: BpuStats,
    slices: u64,
    slice_insts: u64,
    represented: u64,
    /// Seconds inside `run_sampled` on the same cells.
    sampled_s: f64,
    /// Cells whose stream time exceeded their run time.
    child_overruns: u64,
}

impl Span {
    fn parts_s(&self) -> f64 {
        self.build_s + self.new_s + self.open_s + self.restore_s + self.run_s
    }

    fn add(&mut self, o: &Span) {
        self.cell_s += o.cell_s;
        self.build_s += o.build_s;
        self.new_s += o.new_s;
        self.open_s += o.open_s;
        self.restore_s += o.restore_s;
        self.run_s += o.run_s;
        self.news.extend(&o.news);
        self.opens.extend(&o.opens);
        self.restores.extend(&o.restores);
        self.sim_insts += o.sim_insts;
        self.sim_cycles += o.sim_cycles;
        self.meas_insts += o.meas_insts;
        self.meas_cycles += o.meas_cycles;
        self.meas_bubbles += o.meas_bubbles;
        self.meas_overrides += o.meas_overrides;
        self.cost.add(&o.cost);
        add_bpu(&mut self.bpu, &o.bpu);
        self.slices += o.slices;
        self.slice_insts += o.slice_insts;
        self.represented += o.represented;
        self.sampled_s += o.sampled_s;
        self.child_overruns += o.child_overruns;
    }

    fn measured(&mut self, c: &PerfCounters) {
        self.meas_insts += c.committed_insts;
        self.meas_cycles += c.cycles;
        self.meas_bubbles += c.fetch_bubbles;
        self.meas_overrides += c.override_redirects;
    }

    fn core_new<S: InstructionStream>(&mut self, d: &Design, stream: S) -> Result<Core<S>, String> {
        let t = Instant::now();
        let core = Core::new(d, cfg_core(), stream).map_err(|e| format!("{}: {e}", d.name))?;
        let s = secs(t);
        self.new_s += s;
        self.news.push(s);
        Ok(core)
    }

    fn restore<S: InstructionStream>(
        &mut self,
        path: &Path,
        meta: &CbsMeta,
        core: &mut Core<S>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        restore_checkpoint(BufReader::new(file), meta, core)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let s = secs(t);
        self.restore_s += s;
        self.restores.push(s);
        Ok(())
    }

    /// Times one simulation call, returning its report and the counters
    /// it started from.
    fn simulate<S: InstructionStream>(
        &mut self,
        core: &mut Core<S>,
        f: impl FnOnce(&mut Core<S>) -> PerfReport,
    ) -> (PerfReport, PerfCounters) {
        let (c0, b0) = (*core.counters(), *core.bpu().stats());
        let t = Instant::now();
        let report = f(core);
        self.run_s += secs(t);
        let (c1, b1) = (*core.counters(), *core.bpu().stats());
        self.sim_insts += c1.committed_insts - c0.committed_insts;
        self.sim_cycles += c1.cycles - c0.cycles;
        add_bpu(&mut self.bpu, &bpu_since(&b1, &b0));
        (report, c0)
    }

    fn finish<S: InstructionStream>(&mut self, core: Core<Timed<S>>, run_s_before: f64) {
        let cost = core.into_stream().cost();
        if cost.ns() as f64 > (self.run_s - run_s_before) * 1e9 {
            self.child_overruns += 1;
        }
        self.cost.add(&cost);
    }
}

fn add_bpu(a: &mut BpuStats, b: &BpuStats) {
    a.queries += b.queries;
    a.accepts += b.accepts;
    a.commits += b.commits;
    a.cond_branches += b.cond_branches;
    a.mispredicts += b.mispredicts;
    a.revisions += b.revisions;
    a.repair_entries += b.repair_entries;
}

fn bpu_since(b: &BpuStats, a: &BpuStats) -> BpuStats {
    BpuStats {
        queries: b.queries - a.queries,
        accepts: b.accepts - a.accepts,
        commits: b.commits - a.commits,
        cond_branches: b.cond_branches - a.cond_branches,
        mispredicts: b.mispredicts - a.mispredicts,
        revisions: b.revisions - a.revisions,
        repair_entries: b.repair_entries - a.repair_entries,
    }
}

fn traced_exec(d: &Design, spec: &ProgramSpec, measure: u64) -> Result<(String, Span), String> {
    let cell = Instant::now();
    let mut sp = Span::default();
    let t = Instant::now();
    let program = spec.build();
    sp.build_s += secs(t);
    let mut core = sp.core_new(d, Timed::new(program))?;
    let (report, _) = sp.simulate(&mut core, |c| {
        c.run_with_warmup(warmup_for(measure), measure, &spec.name)
    });
    sp.cell_s = secs(cell);
    sp.finish(core, 0.0);
    sp.measured(&report.counters);
    Ok((report_json(&report), sp))
}

fn traced_restored(
    d: &Design,
    spec: &ProgramSpec,
    measure: u64,
    inputs: &Inputs,
) -> Result<(String, Span), String> {
    let trace = inputs
        .trace_dir
        .as_ref()
        .expect("restored set-up captured traces");
    let ckpts = inputs
        .ckpt_dir
        .as_ref()
        .expect("restored set-up captured checkpoints");
    let warmup = warmup_for(measure);
    let cell = Instant::now();
    let mut sp = Span::default();
    let t = Instant::now();
    let path = trace.join(format!("{}.cbt", spec.name));
    let program = TraceProgram::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    sp.open_s += secs(t);
    sp.opens.push(sp.open_s);
    let mut core = sp.core_new(d, Timed::new(program))?;
    let meta = CbsMeta::for_run(d, &cfg_core(), &spec.name, warmup);
    sp.restore(
        &ckpts.join(ckpt_file_name(&d.name, &spec.name)),
        &meta,
        &mut core,
    )?;
    let (report, _) = sp.simulate(&mut core, |c| {
        c.run_with_warmup(warmup, measure, &spec.name)
    });
    sp.cell_s = secs(cell);
    sp.finish(core, 0.0);
    sp.measured(&report.counters);
    Ok((report_json(&report), sp))
}

/// `run_sampled`'s checkpoint mode, one span per call: a fresh core
/// per slice, restored at the slice start, run for the slice length.
///
/// `run_sampled` itself runs on the same cell just before the replay
/// when `direct_first`, else just after, so both see the same host speed
/// and neither side always finds the caches warmer.
fn traced_sampled(
    d: &Design,
    spec: &ProgramSpec,
    plan: &SamplePlan,
    dir: &Path,
    direct_first: bool,
) -> Result<(String, Span), String> {
    let direct = || -> Result<(sampling::SampledOutcome, f64), String> {
        let t = Instant::now();
        let outcome = sampling::run_sampled(d, cfg_core(), spec, plan, Some(dir))?;
        if outcome.mode != sampling::SampleMode::Checkpoint {
            return Err(format!(
                "{}/{}: run_sampled did not restore its slices",
                d.name, spec.name
            ));
        }
        Ok((outcome, secs(t)))
    };
    let early = if direct_first { Some(direct()?) } else { None };
    let mut sp = Span::default();
    let cell = Instant::now();
    let mut deltas = Vec::with_capacity(plan.slices.len());
    for slice in &plan.slices {
        let t = Instant::now();
        let program = spec.build();
        sp.build_s += secs(t);
        let mut core = sp.core_new(d, Timed::new(program))?;
        let meta = CbsMeta::for_run(d, &cfg_core(), &plan.workload, slice.start_inst);
        let path = dir.join(sampling::slice_ckpt_name(
            &d.name,
            &plan.workload,
            slice.seq,
        ));
        sp.restore(&path, &meta, &mut core)?;
        let end = slice.start_inst + slice.len;
        let run_before = sp.run_s;
        let (report, base) = sp.simulate(&mut core, |c| c.run(end, &plan.workload));
        if report.counters.committed_insts < end {
            return Err(format!(
                "{}/{}: slice s{} ended early",
                d.name, spec.name, slice.seq
            ));
        }
        let delta = report.counters.delta(&base);
        sp.measured(&delta);
        deltas.push(delta.to_host());
        sp.finish(core, run_before);
        sp.slices += 1;
        sp.slice_insts += slice.len;
    }
    sp.represented += plan.total_insts;
    let estimate = sampling::estimate(plan, &deltas);
    let report = PerfReport {
        workload: spec.name.clone(),
        design: d.name.clone(),
        counters: estimate.rounded_counters(),
        attribution: Default::default(),
    };
    sp.cell_s = secs(cell);
    let (outcome, sampled_s) = match early {
        Some(done) => done,
        None => direct()?,
    };
    sp.sampled_s = sampled_s;
    if estimate != outcome.estimate {
        return Err(format!(
            "{}/{}: the traced replay's estimate differs from run_sampled's",
            d.name, spec.name
        ));
    }
    Ok((report_json(&report), sp))
}

/// `TraceSim::run` over each cell's stream for the instructions the
/// core simulated there, minus the stream's own time: the predictor with
/// nothing in flight. Returns `(self ns, instructions)`.
fn trace_sim_pass(
    cfg: &Config,
    grid: &Grid,
    inputs: &Inputs,
    spans: &[Span],
) -> Result<(f64, u64), String> {
    let per_cell = parallel_map_on(
        cfg.threads,
        &grid.cells,
        |i, _| -> Result<(f64, u64), String> {
            let (d, spec) = grid.cell(i);
            let mut sim = TraceSim::new(d).map_err(|e| e.to_string())?;
            let insts = spans[i].sim_insts;
            let (run_s, cost) = match &inputs.trace_dir {
                Some(dir) => {
                    let path = dir.join(format!("{}.cbt", spec.name));
                    let program = TraceProgram::open(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let mut s = Timed::new(program);
                    let t = Instant::now();
                    sim.run(&mut s, insts);
                    (secs(t), s.cost())
                }
                None => {
                    let mut s = Timed::new(spec.build());
                    let t = Instant::now();
                    sim.run(&mut s, insts);
                    (secs(t), s.cost())
                }
            };
            Ok((run_s * 1e9 - cost.ns() as f64, insts))
        },
    );
    let mut total = (0.0, 0u64);
    for r in per_cell {
        let (ns, n) = r?;
        total.0 += ns;
        total.1 += n;
    }
    Ok(total)
}

/// Median milliseconds of `analyze_topology` per distinct design
/// topology in the grid, averaged over the topologies.
pub(crate) fn analysis_ms(designs: &[Design]) -> Result<f64, String> {
    let acfg = AnalysisConfig {
        width: cfg_core().fetch_slots(),
        ..AnalysisConfig::default()
    };
    let mut per_topology = Vec::new();
    for d in designs {
        let mut times = Vec::new();
        for _ in 0..ANALYSIS_REPS {
            let t = Instant::now();
            let report = analyze_topology(
                &d.name,
                &d.topology,
                &d.registry,
                d.ghist_bits,
                d.lhist_entries,
                &acfg,
            )
            .map_err(|e| format!("{}: {e}", d.name))?;
            std::hint::black_box(&report);
            times.push(secs(t) * 1e3);
        }
        per_topology.push(median(&times));
    }
    Ok(per_topology.iter().sum::<f64>() / per_topology.len().max(1) as f64)
}

/// Per-1000 ratio, 0 without a base.
fn per_k(n: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        n as f64 * 1000.0 / base as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn traced(
    cfg: &Config,
    grid: &Grid,
    jobs: &[Job<'_>],
    inputs: &Inputs,
    run: &mut Run,
) -> Result<(), String> {
    // The untraced runner pass: the reference bytes and the runner layer.
    let t = Instant::now();
    let results = run_grid_on(cfg.threads, jobs);
    let runner_wall = secs(t);
    let cell_walls: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
    let untraced = rendered(&results.iter().map(|r| r.report.clone()).collect::<Vec<_>>());

    // The traced pass over the same cells and threads.
    let t = Instant::now();
    let traced = parallel_map_on(cfg.threads, &grid.cells, |i, &(_, s)| {
        let (d, spec) = grid.cell(i);
        match cfg.workload {
            Workload::Restored => traced_restored(d, spec, cfg.insts, inputs),
            Workload::Sampled => {
                let plan = inputs.plans[s].as_ref().expect("plans cover every cell");
                let dir = inputs
                    .sample_dir
                    .as_ref()
                    .expect("sampled set-up captured slices");
                traced_sampled(d, spec, plan, dir, i % 2 == 0)
            }
            _ => traced_exec(d, spec, cfg.insts),
        }
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let traced_wall = secs(t);
    let (reports, spans): (Vec<String>, Vec<Span>) = traced.into_iter().unzip();
    check_cells(run, "traced vs untraced", grid, &reports, &untraced);

    let mut tot = Span::default();
    for s in &spans {
        tot.add(s);
    }
    let n = grid.cells.len() as f64;
    let mut checks = vec![Reconcile {
        what: "cell spans cover each traced cell".into(),
        wall_s: tot.cell_s,
        parts_s: tot.parts_s(),
        rel: COVER_REL,
        abs_s: COVER_ABS_PER_CELL_S * n,
    }];
    if cfg.workload == Workload::Sampled {
        checks.push(Reconcile {
            what: "Core::new + restores + slice runs vs run_sampled on each cell".into(),
            wall_s: tot.sampled_s,
            parts_s: tot.build_s + tot.new_s + tot.restore_s + tot.run_s,
            rel: SAMPLED_REL,
            abs_s: COVER_ABS_PER_CELL_S * n,
        });
    }
    for c in &checks {
        run.notes.push(c.line());
        if !c.holds() {
            run.error(c.line());
        }
    }
    // Core self time is run time minus stream time, so stream plus self
    // is run time by definition; what can fail is containment.
    let contained =
        format!(
        "reconcile stream time within run time: stream {:.6}s run {:.6}s, {} of {} cores over {}",
        tot.cost.ns() as f64 / 1e9,
        tot.run_s,
        tot.child_overruns,
        tot.news.len(),
        if tot.child_overruns == 0 { "ok" } else { "FAILED" }
    );
    run.notes.push(contained.clone());
    if tot.child_overruns > 0 {
        run.error(contained);
    }

    let (trace_ns, trace_insts) = trace_sim_pass(cfg, grid, inputs, &spans)?;
    let threads_used = cfg.threads.min(grid.cells.len()).max(1) as f64;
    let stream_ns = tot.cost.block_ns as f64;
    let stream_per_inst = ratio(stream_ns, tot.cost.block_insts as f64);
    let synth = cfg.workload != Workload::Restored;
    let core_self_ns = tot.run_s * 1e9 - tot.cost.ns() as f64;

    run.set("runner.cell_s_p50", median(&cell_walls));
    run.set(
        "runner.cell_s_max",
        cell_walls.iter().copied().fold(0.0, f64::max),
    );
    run.set(
        "runner.busy_ratio",
        cell_walls.iter().sum::<f64>() / (threads_used * runner_wall),
    );
    if synth {
        run.set("workloads.synth.ns_per_inst", stream_per_inst);
        run.set(
            "workloads.synth.pulls_per_commit",
            ratio(tot.cost.pulls() as f64, tot.meas_insts as f64),
        );
    } else {
        run.set("workloads.cbt.ns_per_inst", stream_per_inst);
        run.set("workloads.cbt.open_ms", median(&tot.opens) * 1e3);
    }
    run.set(
        "workloads.inst_at_per_kinst",
        per_k(tot.cost.inst_at_calls, tot.sim_insts),
    );
    run.set(
        "workloads.inst_at_ns",
        ratio(tot.cost.inst_at_ns as f64, tot.cost.inst_at_calls as f64),
    );
    run.set("uarch.core.new_ms", median(&tot.news) * 1e3);
    run.set(
        "uarch.core.ns_per_inst",
        ratio(core_self_ns, tot.sim_insts as f64),
    );
    run.set(
        "uarch.core.ns_per_cycle",
        ratio(core_self_ns, tot.sim_cycles as f64),
    );
    run.set(
        "uarch.core.ipc",
        ratio(tot.meas_insts as f64, tot.meas_cycles as f64),
    );
    run.set(
        "uarch.core.fetch_bubbles_per_kinst",
        per_k(tot.meas_bubbles, tot.meas_insts),
    );
    run.set(
        "uarch.core.override_redirects_per_kinst",
        per_k(tot.meas_overrides, tot.meas_insts),
    );
    run.set(
        "composer.trace_ns_per_inst",
        ratio(trace_ns, trace_insts as f64),
    );
    run.set(
        "composer.queries_per_kinst",
        per_k(tot.bpu.queries, tot.sim_insts),
    );
    run.set(
        "composer.commit_ratio",
        ratio(tot.bpu.commits as f64, tot.bpu.queries as f64),
    );
    run.set(
        "composer.revisions_per_kinst",
        per_k(tot.bpu.revisions, tot.sim_insts),
    );
    run.set(
        "composer.repair_entries_per_kinst",
        per_k(tot.bpu.repair_entries, tot.sim_insts),
    );
    run.set("uarch.checkpoint.restore_ms", median(&tot.restores) * 1e3);
    let save_times: Vec<f64> = inputs.saves.iter().map(|s| s.0).collect();
    run.set("uarch.checkpoint.save_ms", median(&save_times) * 1e3);
    run.set(
        "uarch.checkpoint.bytes",
        ratio(
            inputs.saves.iter().map(|s| s.1 as f64).sum(),
            inputs.saves.len() as f64,
        ),
    );
    if cfg.workload == Workload::Sampled {
        let sampled: Vec<f64> = spans.iter().map(|s| s.sampled_s).collect();
        run.set("sampling.cell_ms", median(&sampled) * 1e3);
        run.set("sampling.slices", ratio(tot.slices as f64, n));
        run.set(
            "sampling.sim_fraction",
            ratio(tot.slice_insts as f64, tot.represented as f64),
        );
        run.set(
            "sampling.restore_share",
            ratio(tot.restore_s, tot.sampled_s),
        );
        let reports: Vec<PerfReport> = results.into_iter().map(|r| r.report).collect();
        let (max, mean) = sampled_error(grid, &reports, run)?;
        run.set("sample_err_max_pct", max);
        run.set("sample_err_mean_pct", mean);
    }
    run.set("analysis.ms_per_topology", analysis_ms(&grid.designs)?);
    run.notes.push(if cfg.workload == Workload::Sampled {
        // The traced pass also ran `run_sampled` on every cell, so the
        // overhead is taken cell by cell.
        format!(
            "tracing overhead: traced cells {:.6}s - run_sampled on the same cells {:.6}s = {:.6}s (summed over cells)",
            tot.cell_s,
            tot.sampled_s,
            tot.cell_s - tot.sampled_s
        )
    } else {
        format!(
            "tracing overhead: traced pass {traced_wall:.6}s - untraced runner pass {runner_wall:.6}s = {:.6}s",
            traced_wall - runner_wall
        )
    });
    Ok(())
}
