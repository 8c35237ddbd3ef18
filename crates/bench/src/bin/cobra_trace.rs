//! `cobra-trace` — run one design × workload and show where the
//! mispredictions come from.
//!
//! The simulated BPU keeps per-component attribution counters (see
//! [`cobra_core::obs`]); this tool runs a simulation with per-PC blame
//! recording enabled and renders the results:
//!
//! ```text
//! cobra-trace TAGE-L gcc                          # human-readable blame tables
//! cobra-trace Tournament xz --top 20              # more mispredicted-PC rows
//! cobra-trace B2 dhrystone --format json          # machine-readable report
//! cobra-trace TAGE-L gcc --trace t.jsonl          # plus a JSONL event trace
//! cobra-trace TAGE-L gcc --chrome t.chrome.json   # plus a chrome://tracing file
//! cobra-trace TAGE-L gcc --selfcheck              # CI mode: validate output
//! cobra-trace --list                              # known designs and workloads
//! ```
//!
//! Designs resolve through [`cobra_core::designs::by_name`]; workloads are
//! the synthetic SPECint17 models plus the named kernels. `--selfcheck`
//! re-parses every JSON surface the run produced and asserts the
//! reconciliation invariant (per-component blame sums to the core's
//! branch-miss count exactly).
//!
//! Exit status: 0 on success, 1 when `--selfcheck` finds a violation,
//! 2 on a usage error.

use cobra_bench::{jsonv, runner, workload_by_name, RunConfig, KERNEL_NAMES};
use cobra_core::designs;
use cobra_core::obs::trace::{TraceFormat, TraceSink};
use cobra_core::obs::{AttributionReport, PcBlame};
use cobra_uarch::{Core, CoreConfig, PerfReport};
use cobra_workloads::SPEC17_NAMES;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    design: String,
    workload: String,
    json: bool,
    top: usize,
    insts: Option<u64>,
    warmup: u64,
    trace: Option<String>,
    chrome: Option<String>,
    metrics: Option<String>,
    selfcheck: bool,
}

const USAGE: &str = "usage: cobra-trace [OPTIONS] DESIGN WORKLOAD

Runs one design x workload simulation with per-component attribution and
per-PC mispredict blame enabled, then renders the results.

Options:
  --format FMT     human (default) or json
  --top N          rows in the mispredicted-PC blame table [10]
  --insts N        measured instructions [COBRA_INSTS or 500000]
  --warmup N       warm-up instructions excluded from counters [0]
                   (the per-PC table always covers the whole run)
  --trace PATH     also write a JSONL event trace to PATH
  --chrome PATH    also write a Chrome trace_event file to PATH
  --metrics PATH   append a runner-schema metrics JSONL record to PATH
  --selfcheck      validate all emitted JSON and the blame-reconciliation
                   invariant; exit 1 on any violation
  --list           print known designs and workloads and exit
  -h, --help       print this help";

fn print_list() {
    println!("designs:");
    for d in designs::catalog() {
        println!("  {:<16} {}", d.name, d.topology);
    }
    println!("workloads:");
    println!("  spec17: {}", SPEC17_NAMES.join(" "));
    println!("  kernels: {}", KERNEL_NAMES.join(" "));
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut json = false;
    let mut top = 10usize;
    let mut insts = None;
    let mut warmup = 0u64;
    let mut trace = None;
    let mut chrome = None;
    let mut metrics = None;
    let mut selfcheck = false;
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list" => {
                print_list();
                return Ok(None);
            }
            "--format" => match need(&mut it, "--format")?.as_str() {
                "json" => json = true,
                "human" => json = false,
                other => return Err(format!("unknown format `{other}`")),
            },
            "--top" => {
                top = need(&mut it, "--top")?
                    .parse()
                    .map_err(|_| "`--top` needs an integer".to_string())?
            }
            "--insts" => {
                insts = Some(
                    need(&mut it, "--insts")?
                        .parse::<u64>()
                        .map_err(|_| "`--insts` needs an integer".to_string())?
                        .max(1),
                )
            }
            "--warmup" => {
                warmup = need(&mut it, "--warmup")?
                    .parse()
                    .map_err(|_| "`--warmup` needs an integer".to_string())?
            }
            "--trace" => trace = Some(need(&mut it, "--trace")?),
            "--chrome" => chrome = Some(need(&mut it, "--chrome")?),
            "--metrics" => metrics = Some(need(&mut it, "--metrics")?),
            "--selfcheck" => selfcheck = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            p => positional.push(p.to_string()),
        }
    }
    let [design, workload] = positional.as_slice() else {
        return Err("expected exactly DESIGN and WORKLOAD (try --list)".into());
    };
    Ok(Some(Options {
        design: design.clone(),
        workload: workload.clone(),
        json,
        top,
        insts,
        warmup,
        trace,
        chrome,
        metrics,
        selfcheck,
    }))
}

/// One mispredicted-PC row: the PC, its total blame, and the nonzero
/// `(component label, count)` breakdown.
type PcRow = (u64, u64, Vec<(String, u64)>);

/// The top-`top` mispredicted PCs by total blame, each with its nonzero
/// per-row breakdown.
fn top_pcs(pc_blame: &PcBlame, labels: &[String], top: usize) -> Vec<PcRow> {
    let mut rows: Vec<PcRow> = pc_blame
        .iter()
        .map(|(&pc, counts)| {
            let total = counts.iter().sum();
            let by: Vec<(String, u64)> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (labels[i].clone(), c))
                .collect();
            (pc, total, by)
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(top);
    rows
}

/// End-of-run occupancy gauges, paired with the component labels the
/// SRAM rows belong to (dataflow order, no static row).
struct RunGauges {
    gauges: cobra_core::obs::interval::IntervalGauges,
    labels: Vec<String>,
}

fn render_gauges(g: &RunGauges) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\noccupancy: history file {} in flight, RAS depth {} (high-water {})",
        g.gauges.hf_occupancy, g.gauges.ras_depth, g.gauges.ras_high_water
    );
    let touched_any = g.gauges.sram_rows.iter().any(|&(_, total)| total > 0);
    if touched_any {
        let _ = writeln!(out, "SRAM rows touched since reset:");
        for (label, &(touched, total)) in g.labels.iter().zip(&g.gauges.sram_rows) {
            if total == 0 {
                let _ = writeln!(out, "  {label:<14} flop-only");
            } else {
                let _ = writeln!(
                    out,
                    "  {label:<14} {touched:>8} / {total:>8} rows ({:.1}%)",
                    touched as f64 * 100.0 / total as f64
                );
            }
        }
    }
    out
}

fn json_gauges(g: &RunGauges) -> String {
    let rows: Vec<String> = g
        .labels
        .iter()
        .zip(&g.gauges.sram_rows)
        .map(|(label, &(touched, total))| {
            format!(
                "{{\"label\":{},\"rows_touched\":{touched},\"rows_total\":{total}}}",
                jsonv::escape(label)
            )
        })
        .collect();
    format!(
        "{{\"hf_occupancy\":{},\"ras_depth\":{},\"ras_high_water\":{},\"sram\":[{}]}}",
        g.gauges.hf_occupancy,
        g.gauges.ras_depth,
        g.gauges.ras_high_water,
        rows.join(",")
    )
}

fn render_human(report: &PerfReport, pcs: &[PcRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let a = &report.attribution;
    let c = &report.counters;
    let _ = writeln!(out, "{report}");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "component", "queries", "provided", "overridden", "dir-miss", "tgt-miss", "blame"
    );
    for comp in &a.components {
        let k = &comp.counters;
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
            comp.label,
            k.queries,
            k.provided_final,
            k.overridden,
            k.direction_blame,
            k.target_blame,
            k.blame()
        );
    }
    let _ = writeln!(
        out,
        "\nblame total {} (= {} branch misses)  packets with prediction {}",
        a.total_blame(),
        c.branch_misses(),
        a.packets_with_prediction
    );
    let _ = writeln!(
        out,
        "history file high-water {} entries, {} ghist snapshot repairs, {} lhist repairs",
        a.hf_high_water, a.ghist_snapshot_repairs, a.lhist_repairs
    );
    if !a.overrides.is_empty() {
        let _ = writeln!(out, "\noverride chains (winner over loser):");
        let mut edges = a.overrides.clone();
        edges.sort_by_key(|e| std::cmp::Reverse(e.count));
        for e in &edges {
            let _ = writeln!(
                out,
                "  {:<14} over {:<14} {:>10}",
                e.winner, e.loser, e.count
            );
        }
    }
    if !pcs.is_empty() {
        let _ = writeln!(out, "\ntop mispredicted PCs (whole run):");
        for (pc, total, by) in pcs {
            let detail: Vec<String> = by.iter().map(|(l, n)| format!("{l}:{n}")).collect();
            let _ = writeln!(out, "  {pc:#010x} {total:>8}  {}", detail.join(" "));
        }
    }
    out
}

fn json_attribution(a: &AttributionReport) -> String {
    let comps: Vec<String> = a
        .components
        .iter()
        .map(|c| {
            let k = &c.counters;
            format!(
                "{{\"label\":{},\"queries\":{},\"fires\":{},\"mispredict_events\":{},\
                 \"repairs\":{},\"updates\":{},\"provided_final\":{},\"overridden\":{},\
                 \"direction_blame\":{},\"target_blame\":{}}}",
                jsonv::escape(&c.label),
                k.queries,
                k.fires,
                k.mispredict_events,
                k.repairs,
                k.updates,
                k.provided_final,
                k.overridden,
                k.direction_blame,
                k.target_blame
            )
        })
        .collect();
    let edges: Vec<String> = a
        .overrides
        .iter()
        .map(|e| {
            format!(
                "{{\"winner\":{},\"loser\":{},\"count\":{}}}",
                jsonv::escape(&e.winner),
                jsonv::escape(&e.loser),
                e.count
            )
        })
        .collect();
    format!(
        "{{\"packets_with_prediction\":{},\"hf_high_water\":{},\"ghist_snapshot_repairs\":{},\
         \"lhist_repairs\":{},\"components\":[{}],\"overrides\":[{}]}}",
        a.packets_with_prediction,
        a.hf_high_water,
        a.ghist_snapshot_repairs,
        a.lhist_repairs,
        comps.join(","),
        edges.join(",")
    )
}

fn render_json(report: &PerfReport, pcs: &[PcRow], gauges: &RunGauges) -> String {
    let c = &report.counters;
    let pc_rows: Vec<String> = pcs
        .iter()
        .map(|(pc, total, by)| {
            let pairs: Vec<String> = by
                .iter()
                .map(|(l, n)| format!("{}:{n}", jsonv::escape(l)))
                .collect();
            format!(
                "{{\"pc\":{},\"total\":{total},\"by\":{{{}}}}}",
                jsonv::escape(&format!("{pc:#x}")),
                pairs.join(",")
            )
        })
        .collect();
    format!(
        "{{\"design\":{},\"workload\":{},\"insts\":{},\"cycles\":{},\"ipc\":{:.4},\
         \"mpki\":{:.4},\"acc\":{:.4},\"branch_misses\":{},\"attribution\":{},\
         \"gauges\":{},\"top_pcs\":[{}]}}",
        jsonv::escape(&report.design),
        jsonv::escape(&report.workload),
        c.committed_insts,
        c.cycles,
        c.ipc(),
        c.mpki(),
        c.branch_accuracy(),
        c.branch_misses(),
        json_attribution(&report.attribution),
        json_gauges(gauges),
        pc_rows.join(",")
    )
}

/// `--selfcheck`: re-parse every JSON surface and enforce the
/// reconciliation invariants. Returns the violations found.
fn selfcheck(report: &PerfReport, json_report: &str, trace_path: Option<&str>) -> Vec<String> {
    let mut bad = Vec::new();
    let a = &report.attribution;
    let misses = report.counters.branch_misses();
    if a.total_blame() != misses {
        bad.push(format!(
            "blame does not reconcile: per-component blame sums to {} but the core counted {} branch misses",
            a.total_blame(),
            misses
        ));
    }
    if a.total_provided() != a.packets_with_prediction {
        bad.push(format!(
            "provided_final sums to {} but {} packets carried a prediction",
            a.total_provided(),
            a.packets_with_prediction
        ));
    }
    match jsonv::parse(json_report) {
        Err(e) => bad.push(format!("--format json report is not valid JSON: {e}")),
        Ok(v) => {
            // One SRAM utilization row per component (the static row has
            // no storage), each with touched <= total.
            let sram_rows = v
                .get("gauges")
                .and_then(|g| g.get("sram"))
                .and_then(jsonv::Json::as_arr);
            match sram_rows {
                None => bad.push("json report is missing gauges.sram".into()),
                Some(rows) => {
                    if rows.len() + 1 != a.components.len() {
                        bad.push(format!(
                            "gauges.sram has {} rows for {} components (+ static)",
                            rows.len(),
                            a.components.len()
                        ));
                    }
                    for r in rows {
                        let touched = r.get("rows_touched").and_then(jsonv::Json::as_u64);
                        let total = r.get("rows_total").and_then(jsonv::Json::as_u64);
                        match (touched, total) {
                            (Some(t), Some(n)) if t <= n => {}
                            _ => bad.push("gauges.sram row with touched > total".into()),
                        }
                    }
                }
            }
        }
    }
    if let Some(path) = trace_path {
        match std::fs::read_to_string(path) {
            Ok(body) => {
                for (i, line) in body.lines().enumerate() {
                    let v = match jsonv::parse(line) {
                        Ok(v) => v,
                        Err(e) => {
                            bad.push(format!("{path}:{}: invalid JSONL: {e}", i + 1));
                            break;
                        }
                    };
                    let ev_ok = v.get("ev").and_then(jsonv::Json::as_str).is_some_and(|ev| {
                        matches!(ev, "predict" | "fire" | "mispredict" | "repair" | "update")
                    });
                    if !ev_ok || v.get("cycle").and_then(jsonv::Json::as_u64).is_none() {
                        bad.push(format!(
                            "{path}:{}: event record missing a valid `ev`/`cycle`",
                            i + 1
                        ));
                        break;
                    }
                }
            }
            Err(e) => bad.push(format!("cannot read trace {path}: {e}")),
        }
    }
    bad
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cobra-trace: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(design) = designs::by_name(&o.design) else {
        eprintln!("cobra-trace: unknown design `{}` (try --list)", o.design);
        return ExitCode::from(2);
    };
    let Some(spec) = workload_by_name(&o.workload) else {
        eprintln!(
            "cobra-trace: unknown workload `{}` (try --list)",
            o.workload
        );
        return ExitCode::from(2);
    };
    let rc = RunConfig::from_env();
    let measure = o.insts.unwrap_or(rc.insts);

    let mut core = match Core::new(&design, CoreConfig::default(), spec.build()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cobra-trace: `{}` failed to compose: {e}", design.name);
            return ExitCode::FAILURE;
        }
    };
    core.bpu_mut().force_plan(rc.plan);
    core.bpu_mut().force_profiler(rc.profile);
    core.bpu_mut().enable_pc_attribution();
    let node_labels: Vec<String> = {
        let sink = core.bpu().attribution();
        sink.labels()[..sink.num_components()].to_vec()
    };
    if let Some(path) = &o.trace {
        core.bpu_mut().attach_tracer(TraceSink::new(
            PathBuf::from(path),
            TraceFormat::Jsonl,
            node_labels.clone(),
        ));
    }
    if let Some(path) = &o.chrome {
        core.bpu_mut().attach_tracer(TraceSink::new(
            PathBuf::from(path),
            TraceFormat::Chrome,
            node_labels.clone(),
        ));
    }

    let started = Instant::now();
    let report = core.run_with_warmup(o.warmup, measure, &spec.name);
    let wall = started.elapsed();

    let blame_labels = core.bpu().attribution().labels().to_vec();
    let pcs = core
        .bpu()
        .pc_attribution()
        .map(|m| top_pcs(m, &blame_labels, o.top))
        .unwrap_or_default();
    let gauges = RunGauges {
        gauges: core.interval_gauges(),
        labels: node_labels.clone(),
    };

    // The JSON report is always rendered so --selfcheck covers it even in
    // human mode.
    let json_report = render_json(&report, &pcs, &gauges);
    if o.json {
        println!("{json_report}");
    } else {
        print!("{}", render_human(&report, &pcs));
        print!("{}", render_gauges(&gauges));
    }

    if let Some(path) = &o.metrics {
        let result = runner::JobResult::new(report.clone(), wall);
        let line = runner::metrics_record("cobra-trace", &result);
        if let Err(e) = runner::write_metrics(path.as_ref(), std::slice::from_ref(&line)) {
            eprintln!("cobra-trace: warning: could not write --metrics {path:?}: {e}");
        }
    }

    if o.selfcheck {
        let violations = selfcheck(&report, &json_report, o.trace.as_deref());
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("cobra-trace: selfcheck: {v}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("cobra-trace: selfcheck passed");
    }
    ExitCode::SUCCESS
}
