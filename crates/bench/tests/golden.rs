//! Golden-report regression gate.
//!
//! The simulator is deterministic: for a fixed design, configuration, and
//! workload, every counter in the `PerfReport` is reproducible bit for
//! bit. This test pins that output — every stock design on two contrasting
//! SPECint17 profiles at a 20 000-instruction measured region — against
//! checked-in JSONL fixtures, so any change that silently shifts simulated
//! behaviour fails CI with a field-level diff instead of landing unnoticed.
//!
//! Every cell runs twice, through the compiled execution plan and through
//! the reference interpreter (`force_plan(false)`), and both must match
//! the same fixture.
//!
//! Wall-clock-dependent metrics (`wall_s`, MIPS) are deliberately absent
//! from the fixtures; only architectural counters are gated.
//!
//! To accept an *intentional* behaviour change, regenerate the fixtures:
//!
//! ```text
//! COBRA_GOLDEN_BLESS=1 cargo test -p cobra-bench --test golden
//! ```
//!
//! and commit the diff — the fixture churn documents the drift in review.

use cobra_bench::jsonv;
use cobra_core::designs;
use cobra_uarch::{Core, CoreConfig};
use cobra_workloads::spec17;
use std::fmt::Write as _;
use std::path::PathBuf;

const MEASURE: u64 = 20_000;
const WARMUP: u64 = MEASURE * 2 / 5;
const WORKLOADS: [&str; 2] = ["gcc", "xz"];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reports.jsonl")
}

/// Runs the golden grid on the plan (`plan`) or interpreter packet path
/// and renders one JSONL record per cell, in a fixed order
/// (workload-major, then design).
fn current_reports(plan: bool) -> String {
    let cfg = CoreConfig::boom_4wide();
    let mut out = String::new();
    for name in WORKLOADS {
        let spec = spec17::spec17(name);
        for design in designs::all() {
            let mut core = Core::new(&design, cfg, spec.build()).expect("stock designs compose");
            core.bpu_mut().force_plan(plan);
            let report = core.run_with_warmup(WARMUP, MEASURE, &spec.name);
            let c = &report.counters;
            writeln!(
                out,
                "{{\"design\":{},\"workload\":{},\"warmup\":{WARMUP},\
                 \"measure\":{MEASURE},\"cycles\":{},\"committed_insts\":{},\
                 \"cond_branches\":{},\"cfis\":{},\"cond_mispredicts\":{},\
                 \"target_mispredicts\":{},\"override_redirects\":{},\
                 \"history_replays\":{},\"fetch_bubbles\":{},\
                 \"icache_stall_cycles\":{},\"rob_stall_cycles\":{}}}",
                jsonv::escape(&design.name),
                jsonv::escape(name),
                c.cycles,
                c.committed_insts,
                c.cond_branches,
                c.cfis,
                c.cond_mispredicts,
                c.target_mispredicts,
                c.override_redirects,
                c.history_replays,
                c.fetch_bubbles,
                c.icache_stall_cycles,
                c.rob_stall_cycles,
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// Field-level description of how `got` differs from `want`, for a
/// reviewable failure message.
fn describe_drift(want: &str, got: &str) -> String {
    let mut drift = String::new();
    let (want_lines, got_lines): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    if want_lines.len() != got_lines.len() {
        let _ = writeln!(
            drift,
            "record count changed: fixture has {}, current run has {}",
            want_lines.len(),
            got_lines.len()
        );
    }
    for (w, g) in want_lines.iter().zip(&got_lines) {
        let (w, g) = match (jsonv::parse(w), jsonv::parse(g)) {
            (Ok(w), Ok(g)) => (w, g),
            _ => {
                let _ = writeln!(drift, "unparsable record:\n  fixture: {w}\n  current: {g}");
                continue;
            }
        };
        if w == g {
            continue;
        }
        let cell = format!(
            "{}/{}",
            g.get("design").and_then(jsonv::Json::as_str).unwrap_or("?"),
            g.get("workload")
                .and_then(jsonv::Json::as_str)
                .unwrap_or("?"),
        );
        if let (jsonv::Json::Obj(wm), jsonv::Json::Obj(gm)) = (&w, &g) {
            for (key, wv) in wm {
                let gv = gm.get(key);
                if gv != Some(wv) {
                    let _ = writeln!(
                        drift,
                        "  {cell}: {key} was {wv:?}, now {}",
                        gv.map_or("absent".to_string(), |v| format!("{v:?}"))
                    );
                }
            }
        }
    }
    drift
}

/// The gate: the current run, on both packet paths, must match
/// `tests/golden/reports.jsonl` exactly. Set `COBRA_GOLDEN_BLESS=1` to
/// regenerate the fixture (from the plan path) instead.
#[test]
fn reports_match_golden_fixtures() {
    let got = current_reports(true);
    let path = fixture_path();
    if cobra_core::env::gate("COBRA_GOLDEN_BLESS") {
        std::fs::write(&path, &got)
            .unwrap_or_else(|e| panic!("blessing {} failed: {e}", path.display()));
        eprintln!(
            "blessed {} ({} records)",
            path.display(),
            got.lines().count()
        );
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} is unreadable ({e}); generate it with \
             COBRA_GOLDEN_BLESS=1 cargo test -p cobra-bench --test golden",
            path.display()
        )
    });
    for (packet_path, got) in [("plan", got), ("interpreter", current_reports(false))] {
        assert!(
            want == got,
            "simulated behaviour on the {packet_path} path drifted from the golden fixtures:\n{}\n\
             If this change is intentional, re-bless with \
             COBRA_GOLDEN_BLESS=1 cargo test -p cobra-bench --test golden \
             and commit the fixture diff.",
            describe_drift(&want, &got)
        );
    }
}

/// The fixture file itself must stay valid JSONL with the gated schema —
/// catches hand-edits that would otherwise surface as a confusing diff.
#[test]
fn golden_fixtures_are_valid_jsonl() {
    let path = fixture_path();
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} is unreadable: {e}", path.display()));
    for (i, line) in body.lines().enumerate() {
        let v = jsonv::parse(line)
            .unwrap_or_else(|e| panic!("{}:{}: bad JSON: {e}", path.display(), i + 1));
        for key in [
            "design",
            "workload",
            "warmup",
            "measure",
            "cycles",
            "committed_insts",
            "cond_branches",
            "cfis",
            "cond_mispredicts",
            "target_mispredicts",
            "override_redirects",
            "history_replays",
            "fetch_bubbles",
            "icache_stall_cycles",
            "rob_stall_cycles",
        ] {
            assert!(
                v.get(key).is_some(),
                "{}:{}: record is missing `{key}`",
                path.display(),
                i + 1
            );
        }
    }
}
