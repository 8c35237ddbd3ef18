//! `cobra-checkpoint` — capture warm-state `.cbs` checkpoints for
//! warmup-once/measure-many grid runs.
//!
//! For each (design × workload) pair, builds the composed core, runs it
//! to the warmup boundary, and serializes the complete machine state —
//! every predictor table, the history file, the caches, the RAS, and the
//! workload cursor — into the COBRA Binary Snapshot format
//! (`docs/CHECKPOINT_FORMAT.md`). Grid binaries restore these via
//! `COBRA_CKPT_DIR`, skipping warm-up entirely while producing
//! `PerfReport`s byte-identical to straight-through runs:
//!
//! ```text
//! cobra-checkpoint gcc                      # all designs, one profile
//! cobra-checkpoint --all --out /tmp/ck      # the whole SPECint17 suite
//! cobra-checkpoint --all --at 200000        # checkpoint at 200k insts
//! cobra-checkpoint gcc --designs TAGE-L,B2  # a design subset
//! cobra-checkpoint gcc --verify             # restore + re-save each file
//! #                                           and require identical bytes
//! cobra-checkpoint --list                   # design and workload names
//! ```
//!
//! `--at` defaults to the warmup boundary the grid binaries will expect
//! at restore time: 40 % of `COBRA_INSTS` (500 000 by default). A
//! checkpoint taken at any other boundary is rejected at restore with an
//! `IdentityMismatch` on the warmup boundary rather than silently skewing
//! the measured region.
//!
//! Exit status: 0 on success, 1 on a capture or verify failure, 2 on a
//! usage error.

use cobra_bench::run::{execute, resave_checkpoint, warmup_for, RunSpec};
use cobra_bench::runner::parallel_map_on;
use cobra_bench::{ckpt_file_name, workload_by_name, RunConfig, KERNEL_NAMES};
use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{ProgramSpec, SPEC17_NAMES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: cobra-checkpoint [OPTIONS] WORKLOAD...

Runs each (design x workload) pair to the warmup boundary and writes the
warm machine state to `<out>/<design>--<workload>.cbs`, for restore via
COBRA_CKPT_DIR.

Options:
  --all            checkpoint every SPECint17 profile
  --designs CSV    comma-separated design names [every stock design]
  --out DIR        output directory [checkpoints]
  --at N           warmup boundary in instructions [40% of COBRA_INSTS]
  --verify         re-open each file, restore it into a fresh core,
                   re-serialize, and require byte-identical state
  --list           print design and workload names and exit
  -h, --help       print this help";

struct Options {
    workloads: Vec<String>,
    designs: Option<Vec<String>>,
    out: PathBuf,
    at: u64,
    verify: bool,
}

fn parse_args(args: &[String], insts: u64) -> Result<Option<Options>, String> {
    let mut workloads: Vec<String> = Vec::new();
    let mut design_names: Option<Vec<String>> = None;
    let mut all = false;
    let mut out = PathBuf::from("checkpoints");
    let mut at = None;
    let mut verify = false;
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--designs" => {
                let v = need(&mut it, "--designs")?;
                design_names = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--out" => out = PathBuf::from(need(&mut it, "--out")?),
            "--at" => {
                let v = need(&mut it, "--at")?;
                at = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("`--at {v}` is not a number"))?
                        .max(1),
                );
            }
            "--verify" => verify = true,
            "--list" => {
                let names: Vec<String> = designs::all().iter().map(|d| d.name.clone()).collect();
                println!("designs: {}", names.join(" "));
                println!("spec17: {}", SPEC17_NAMES.join(" "));
                println!("kernels: {}", KERNEL_NAMES.join(" "));
                return Ok(None);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => workloads.push(other.to_string()),
        }
    }
    if all {
        for n in SPEC17_NAMES {
            if !workloads.iter().any(|w| w.eq_ignore_ascii_case(n)) {
                workloads.push((*n).to_string());
            }
        }
    }
    if workloads.is_empty() {
        return Err("no workloads named (try `--all` or `--list`)".into());
    }
    Ok(Some(Options {
        workloads,
        designs: design_names,
        out,
        at: at.unwrap_or_else(|| warmup_for(insts)),
        verify,
    }))
}

/// Runs `design` on `spec` to the warmup boundary `at` and saves the
/// machine to `path`; returns the bytes written.
fn save_at(
    rc: &RunConfig,
    design: &Design,
    spec: &ProgramSpec,
    at: u64,
    path: &Path,
) -> Result<u64, String> {
    let outcome = execute(RunSpec {
        warmup: at,
        measure: 0,
        saves: vec![(at, path.to_path_buf())],
        ..rc.run_spec(design, CoreConfig::boom_4wide(), spec, 0)
    })
    .map_err(|e| e.to_string())?;
    Ok(outcome.saved.iter().map(|&(_, bytes)| bytes).sum())
}

/// Restores `path` into a fresh core, re-serializes that core, and
/// requires the bytes to match the file exactly — a full
/// save/restore/save fixed-point check.
fn verify_one(design: &Design, spec: &ProgramSpec, at: u64, path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("re-open failed: {e}"))?;
    let resaved = resave_checkpoint(design, CoreConfig::boom_4wide(), spec, at, path)
        .map_err(|e| e.to_string())?;
    if resaved != bytes {
        return Err("restore/re-save is not a byte-identical fixed point".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rc = RunConfig::from_env();
    let opts = match parse_args(&args, rc.insts) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cobra-checkpoint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let all_designs = designs::all();
    let selected: Vec<&Design> = match &opts.designs {
        Some(names) => {
            let mut picked = Vec::new();
            for n in names {
                match all_designs.iter().find(|d| d.name.eq_ignore_ascii_case(n)) {
                    Some(d) => picked.push(d),
                    None => {
                        eprintln!("cobra-checkpoint: unknown design `{n}` (try `--list`)");
                        return ExitCode::from(2);
                    }
                }
            }
            picked
        }
        None => all_designs.iter().collect(),
    };

    let mut specs = Vec::new();
    for name in &opts.workloads {
        match workload_by_name(name) {
            Some(s) => specs.push(s),
            None => {
                eprintln!("cobra-checkpoint: unknown workload `{name}` (try `--list`)");
                return ExitCode::from(2);
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!(
            "cobra-checkpoint: cannot create {}: {e}",
            opts.out.display()
        );
        return ExitCode::FAILURE;
    }

    let pairs: Vec<(&Design, &ProgramSpec)> = selected
        .iter()
        .flat_map(|d| specs.iter().map(move |s| (*d, s)))
        .collect();
    println!(
        "checkpointing {} (design x workload) pair(s) to {} at {} warmup insts",
        pairs.len(),
        opts.out.display(),
        opts.at
    );

    let results = parallel_map_on(rc.threads, &pairs, |_, (design, spec)| {
        let path = opts.out.join(ckpt_file_name(&design.name, &spec.name));
        let t0 = Instant::now();
        let outcome = save_at(&rc, design, spec, opts.at, &path).and_then(|bytes| {
            if opts.verify {
                verify_one(design, spec, opts.at, &path)?;
            }
            Ok(bytes)
        });
        (path, outcome, t0.elapsed().as_secs_f64())
    });

    let mut failed = false;
    for ((design, spec), (path, outcome, wall)) in pairs.iter().zip(&results) {
        match outcome {
            Ok(bytes) => {
                let verified = if opts.verify { "  verified" } else { "" };
                println!(
                    "  {:<12} {:<14} {:>9} bytes  {:>6.2}s{verified}  -> {}",
                    design.name,
                    spec.name,
                    bytes,
                    wall,
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("cobra-checkpoint: {}/{}: {e}", design.name, spec.name);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
