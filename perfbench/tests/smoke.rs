//! Tiny-scale smoke of every workload, untraced and traced: each run must
//! exit 0, report itself correct, and print every metric `BENCHMARK.json`
//! names for its mode with the unit it declares.

use cobra_bench::jsonv::{self, Json};
use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = jsonv::parse(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// The runs time themselves and the traced ones reconcile those times;
/// one at a time, they do not measure each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, scale: &[&str]) {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_cobra-perfbench"))
            .current_dir(repo_root())
            .args([
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .args(scale)
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        let v = jsonv::parse(last).expect("the result line is JSON");
        assert!(matches!(v.get("correct"), Some(Json::Bool(true))), "{last}");
        assert!(
            v.get("attempted")
                .and_then(Json::as_u64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = v.get("metrics").expect("metrics");
        for (name, unit) in declared(section) {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
            assert!(
                m.get("value").and_then(Json::as_num).is_some(),
                "{name} has no value"
            );
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
        }
    }
}

#[test]
fn fig10_exec_prints_every_metric() {
    // Regenerated programs, so the references simulated at that seed are
    // exercised too.
    smoke(
        "fig10-exec",
        &["--insts", "3000", "--cells", "3", "--program-seed", "7"],
    );
}

#[test]
fn fig10_restored_prints_every_metric() {
    smoke("fig10-restored", &["--insts", "3000", "--cells", "3"]);
}

#[test]
fn fig10_sampled_prints_every_metric() {
    // The committed plans pin the run length; one cell keeps it small.
    smoke("fig10-sampled", &["--cells", "1"]);
}

#[test]
fn serve_mixed_prints_every_metric() {
    smoke("serve-mixed", &["--insts", "2000"]);
}
