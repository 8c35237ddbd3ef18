//! Section VI-C: the core-optimization experiment — decoding short-forwards
//! ("hammock") branches into set-flag / conditional-execute micro-ops. The
//! paper: CoreMark improves from 4.9 to 6.1 CoreMarks/MHz and branch
//! accuracy from 97 % to 99.1 % on the TAGE-L core.

use cobra_bench::runner::{run_grid, Job};
use cobra_bench::RunConfig;
use cobra_bench::{pct_delta, reference};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::kernels;

fn main() {
    println!("SECTION VI-C — short-forwards-branch predication (CoreMark kernel)");
    println!(
        "{:<12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "design", "IPC base", "IPC +SFB", "dIPC", "acc base", "acc +SFB", "MPKIbase"
    );
    let all_designs = designs::all();
    let base_spec = kernels::coremark(false);
    let sfb_spec = kernels::coremark(true);
    // Design-major pairs: (base, +SFB) per design.
    let jobs: Vec<Job<'_>> = all_designs
        .iter()
        .flat_map(|d| {
            [
                Job::new(d, CoreConfig::boom_4wide(), &base_spec),
                Job::new(d, CoreConfig::boom_4wide(), &sfb_spec),
            ]
        })
        .collect();
    let grid = run_grid(&RunConfig::from_env(), &jobs);
    for (i, design) in all_designs.iter().enumerate() {
        let base = &grid[2 * i].report;
        let sfb = &grid[2 * i + 1].report;
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>9} {:>8.2}% {:>8.2}% {:>9.2}",
            design.name,
            base.counters.ipc(),
            sfb.counters.ipc(),
            pct_delta(sfb.counters.ipc(), base.counters.ipc()),
            base.counters.branch_accuracy(),
            sfb.counters.branch_accuracy(),
            base.counters.mpki(),
        );
    }
    let (a0, a1) = reference::sec6::SFB_ACCURACY;
    let (c0, c1) = reference::sec6::SFB_COREMARKS_PER_MHZ;
    println!();
    println!(
        "paper (TAGE-L): {c0} → {c1} CoreMarks/MHz ({}), accuracy {a0}% → {a1}%",
        cobra_bench::pct_delta(c1, c0)
    );
    println!("Both paper effects should reproduce: predicated hammocks can no");
    println!("longer mispredict, and the predictor stops spending entries on");
    println!("them — improving accuracy for every design.");
}
