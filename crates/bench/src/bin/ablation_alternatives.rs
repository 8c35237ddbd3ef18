//! Alternative-component designs from the extension library, evaluated
//! like Fig 10: the statistical corrector the paper's TAGE-L deliberately
//! omits ("no statistical corrector"), and a perceptron-based design
//! (Section III-G: perceptrons "may be implemented similarly").

use cobra_bench::runner::{run_grid, Job};
use cobra_bench::RunConfig;
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{spec17, ProgramSpec};

const WORKLOADS: [&str; 5] = ["gcc", "deepsjeng", "leela", "x264", "xz"];

fn main() {
    println!("ABLATION — alternative predictor components (MPKI / IPC)");
    let alt = [
        designs::b2(),
        designs::perceptron(),
        designs::tage_l(),
        designs::tage_sc_l(),
    ];
    print!("{:<11}", "bench");
    for d in &alt {
        print!(" {:>18}", d.name);
    }
    println!();
    let specs: Vec<ProgramSpec> = WORKLOADS.iter().map(|w| spec17::spec17(w)).collect();
    // Workload-major grid: one row of designs per benchmark.
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            alt.iter()
                .map(move |d| Job::new(d, CoreConfig::boom_4wide(), spec))
        })
        .collect();
    let grid = run_grid(&RunConfig::from_env(), &jobs);
    for (i, w) in WORKLOADS.iter().enumerate() {
        print!("{w:<11}");
        for d in 0..alt.len() {
            let r = &grid[i * alt.len() + d].report;
            print!(" {:>10.2}/{:>6.3}", r.counters.mpki(), r.counters.ipc());
        }
        println!();
    }
    println!();
    println!("Reading: the perceptron design (one global-history perceptron over");
    println!("a bimodal base) sits between B2 and TAGE-L; the statistical");
    println!("corrector trims TAGE-L's residual mispredictions on biased-branch");
    println!("workloads — the component the paper lists as the natural next");
    println!("addition to its TAGE-L design.");
}
