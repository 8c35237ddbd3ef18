//! `cobra-search` — deterministic topology autotuner over the COBRA
//! composition space (see `cobra_bench::search` and `docs/SAMPLING.md`).
//!
//! Starting from the built-in catalog, the search mutates topology
//! strings (component swaps, chain edits, arbiter restructuring) and
//! history geometry, statically prunes every candidate with the
//! `cobra-lint --deny warnings` + `cobra-area --budget` criteria
//! *before* simulating anything, evaluates the survivors — by
//! phase-sampled simulation when `--plans` has a plan for the workload,
//! exact simulation otherwise, or through a running `cobra-serve` with
//! `--serve` — and prints the Pareto frontier over (MPKI, storage,
//! pipeline depth):
//!
//! ```text
//! cobra-search --budget 64 --workloads gcc,xz --plans plans
//! cobra-search --seed 7 --generations 4 --population 12 --json frontier.json
//! cobra-search --serve tcp:127.0.0.1:7411 --workloads gcc
//! cobra-search --validate frontier.json    # CI: re-gate every member
//! ```
//!
//! Identical seeds produce byte-identical frontier JSON — the CI
//! search-smoke leg runs the search twice and diffs the files, then
//! `--validate` re-runs the static gate over every frontier member.
//!
//! Exit status: 0 on success (for `--validate`: every member passes),
//! 1 on failure, 2 on a usage error.

use cobra_bench::run::{execute, warmup_for};
use cobra_bench::sampling::{load_plan_at, plan_file_name, sample};
use cobra_bench::search::{
    parse_frontier_json, prune_statically, render_frontier_human, render_frontier_json, run_search,
    Candidate, SearchConfig,
};
use cobra_bench::serve::client::Client;
use cobra_bench::serve::protocol::{report_from_json, submit_line, JobTarget};
use cobra_bench::serve::server::Listen;
use cobra_bench::{jsonv::Json, workload_by_name, RunConfig};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::ProgramSpec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const USAGE: &str = "usage: cobra-search [OPTIONS]

Searches the composition space for Pareto-optimal designs under a
storage budget: catalog seeds, mutation, static lint/area pruning, then
simulation of the survivors only.

Options:
  --budget KB      total-storage budget in KB [64]
  --seed N         search seed [1]
  --generations N  mutate/evaluate rounds [3]
  --population N   beam width / evaluations per round [8]
  --workloads CSV  evaluation workloads [gcc,xz]
  --plans DIR      sampling plans + slice checkpoints (phase-sampled
                   evaluation; workloads without a plan run exact)
  --serve ADDR     evaluate via a running cobra-serve (tcp:HOST:PORT or
                   unix:PATH) instead of in-process simulation
  --json PATH      also write the frontier as canonical JSON
  --validate PATH  re-run the static gate over a frontier JSON's members
                   and exit nonzero if any fails (no simulation)
  -h, --help       print this help";

struct Options {
    cfg: SearchConfig,
    workloads: Vec<String>,
    plans: Option<PathBuf>,
    serve: Option<String>,
    json: Option<PathBuf>,
    validate: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut o = Options {
        cfg: SearchConfig::default(),
        workloads: vec!["gcc".into(), "xz".into()],
        plans: None,
        serve: None,
        json: None,
        validate: None,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse::<u64>()
            .map_err(|_| format!("`{flag} {v}` is not a number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => {
                let v = need(&mut it, "--budget")?;
                o.cfg.budget_kb = v
                    .parse::<f64>()
                    .map_err(|_| format!("`--budget {v}` is not a number"))?;
            }
            "--seed" => o.cfg.seed = num(need(&mut it, "--seed")?, "--seed")?,
            "--generations" => {
                o.cfg.generations = num(need(&mut it, "--generations")?, "--generations")? as usize
            }
            "--population" => {
                let p = num(need(&mut it, "--population")?, "--population")? as usize;
                o.cfg.population = p.max(1);
            }
            "--workloads" => {
                let v = need(&mut it, "--workloads")?;
                o.workloads = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--plans" => o.plans = Some(PathBuf::from(need(&mut it, "--plans")?)),
            "--serve" => o.serve = Some(need(&mut it, "--serve")?),
            "--json" => o.json = Some(PathBuf::from(need(&mut it, "--json")?)),
            "--validate" => o.validate = Some(PathBuf::from(need(&mut it, "--validate")?)),
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if o.workloads.is_empty() {
        return Err("`--workloads` named no workloads".into());
    }
    Ok(Some(o))
}

/// `--validate`: every frontier member must still pass the static gate
/// at the frontier's own budget.
fn validate_frontier(path: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (budget_kb, members) = parse_frontier_json(&text)?;
    if members.is_empty() {
        return Err(format!("{}: empty frontier", path.display()));
    }
    let registry = designs::stock_registry();
    let mut ok = true;
    for m in &members {
        match prune_statically(m, &registry, 8, budget_kb) {
            Some(report) => println!(
                "  PASS {:<52} {:>7.1} KB  depth {}",
                m.key(),
                report.total_storage_kb(),
                report.depth
            ),
            None => {
                eprintln!(
                    "cobra-search: frontier member {} fails the static gate \
                     (lint warnings or over the {budget_kb} KB budget)",
                    m.key()
                );
                ok = false;
            }
        }
    }
    println!(
        "{} member(s) validated against the {budget_kb} KB budget: {}",
        members.len(),
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(ok)
}

/// In-process evaluation: phase-sampled when the workload has a plan
/// under `plans`, exact full simulation otherwise.
fn eval_local(
    rc: &RunConfig,
    cand: &Candidate,
    specs: &[(String, ProgramSpec)],
    plans: Option<&Path>,
) -> Result<Vec<(String, f64)>, String> {
    let design = designs::from_topology(&cand.topology, cand.ghist_bits, cand.lhist_entries);
    let cfg = CoreConfig::boom_4wide();
    let measure = rc.insts;
    let mut out = Vec::with_capacity(specs.len());
    for (name, spec) in specs {
        let plan_path = plans.map(|d| d.join(plan_file_name(name)));
        let mpki = match plan_path.filter(|p| p.is_file()) {
            Some(p) => {
                let plan = load_plan_at(&p, warmup_for(measure)).map_err(|e| e.to_string())?;
                sample(rc, &design, cfg, spec, &plan, plans)
                    .map_err(|e| e.to_string())?
                    .estimate
                    .mpki()
            }
            None => execute(rc.run_spec(&design, cfg, spec, measure))
                .map_err(|e| e.to_string())?
                .report
                .counters
                .mpki(),
        };
        out.push((name.clone(), mpki));
    }
    Ok(out)
}

/// Remote evaluation through `cobra-serve`: one connection per call
/// (thread-safe under the search's parallel evaluation), one submit per
/// workload.
fn eval_serve(
    insts: u64,
    cand: &Candidate,
    specs: &[(String, ProgramSpec)],
    listen: &Listen,
    next_id: &AtomicU64,
) -> Result<Vec<(String, f64)>, String> {
    let mut client = Client::connect(listen).map_err(|e| format!("connect: {e}"))?;
    let target = JobTarget::Topology {
        topology: cand.topology.clone(),
        ghist_bits: cand.ghist_bits,
        lhist_entries: cand.lhist_entries,
    };
    let mut out = Vec::with_capacity(specs.len());
    for (name, _) in specs {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        client
            .send(&submit_line(id, &target, name, insts))
            .map_err(|e| format!("submit: {e}"))?;
        let mut rejected = None;
        let result = client
            .recv_until("result", |_, ev| {
                if ev.get("ev").and_then(Json::as_str) == Some("rejected") {
                    rejected = Some(
                        ev.get("code")
                            .and_then(Json::as_str)
                            .unwrap_or("E_UNKNOWN")
                            .to_string(),
                    );
                }
            })
            .map_err(|e| format!("recv: {e}"))?;
        if let Some(code) = rejected {
            return Err(format!("server rejected {name}: {code}"));
        }
        let (_, ev) = result.ok_or("server closed the connection before the result")?;
        let report = ev
            .get("report")
            .ok_or("result event without a report")
            .and_then(|r| report_from_json(r).map_err(|_| "unreadable report"))
            .map_err(String::from)?;
        out.push((name.clone(), report.counters.mpki()));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rc = RunConfig::from_env();
    let o = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cobra-search: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &o.validate {
        return match validate_frontier(path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cobra-search: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut specs = Vec::new();
    for name in &o.workloads {
        match workload_by_name(name) {
            Some(s) => specs.push((name.clone(), s)),
            None => {
                eprintln!("cobra-search: unknown workload `{name}`");
                return ExitCode::from(2);
            }
        }
    }
    let listen = match &o.serve {
        Some(addr) => match Listen::parse(addr) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("cobra-search: --serve {addr}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    println!(
        "searching under {} KB: seed {}, {} generation(s), population {}, \
         workloads [{}], {} thread(s), {}",
        o.cfg.budget_kb,
        o.cfg.seed,
        o.cfg.generations,
        o.cfg.population,
        o.workloads.join(", "),
        rc.threads,
        match (&listen, &o.plans) {
            (Some(_), _) => "evaluating via cobra-serve".to_string(),
            (None, Some(p)) => format!("phase-sampled via {}", p.display()),
            (None, None) => "exact in-process evaluation".to_string(),
        }
    );

    let t0 = Instant::now();
    let next_id = AtomicU64::new(1);
    let outcome = match &listen {
        Some(l) => run_search(&o.cfg, rc.threads, |cand| {
            eval_serve(rc.insts, cand, &specs, l, &next_id)
        }),
        None => run_search(&o.cfg, rc.threads, |cand| {
            eval_local(&rc, cand, &specs, o.plans.as_deref())
        }),
    };
    eprintln!(
        "[search] {} candidate(s) statically pruned, {} simulated, {:.1}s",
        outcome.pruned,
        outcome.evaluated,
        t0.elapsed().as_secs_f64()
    );
    if outcome.frontier.is_empty() {
        eprintln!("cobra-search: no candidate survived evaluation");
        return ExitCode::FAILURE;
    }
    print!("{}", render_frontier_human(&outcome.frontier));

    if let Some(path) = &o.json {
        let text = render_frontier_json(&o.cfg, &outcome);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cobra-search: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // stderr: stdout must stay byte-identical across runs that only
        // differ in --json path (the CI search-smoke leg diffs it).
        eprintln!("frontier JSON -> {}", path.display());
    }
    ExitCode::SUCCESS
}
