//! History-reach ablation: branches correlated with an outcome `d` ago are
//! learnable only by predictors whose effective history reaches `d`. The
//! sweep traces each design's accuracy as the correlation deepens —
//! B2's 16-bit GTAG falls off first, the Tournament's 14-bit GHT next,
//! TAGE's geometric tables (up to 64 bits) last.

use cobra_bench::runner::{run_grid, Job};
use cobra_bench::RunConfig;
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{kernels, ProgramSpec};

const DEPTHS: [u32; 8] = [1, 4, 8, 12, 16, 24, 32, 48];

fn main() {
    println!("ABLATION — accuracy vs correlation depth");
    println!(
        "{:<7} {:>12} {:>12} {:>12}",
        "depth", "Tournament", "B2", "TAGE-L"
    );
    let all_designs = designs::all();
    let specs: Vec<ProgramSpec> = DEPTHS.iter().map(|&d| kernels::history_depth(d)).collect();
    // Depth-major grid: one row of designs per depth.
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            all_designs
                .iter()
                .map(move |d| Job::new(d, CoreConfig::boom_4wide(), spec))
        })
        .collect();
    let grid = run_grid(&RunConfig::from_env(), &jobs);
    for (i, depth) in DEPTHS.iter().enumerate() {
        let mut row = format!("{depth:<7}");
        for d in 0..all_designs.len() {
            let r = &grid[i * all_designs.len() + d].report;
            row += &format!(" {:>11.2}%", r.counters.branch_accuracy());
        }
        println!("{row}");
    }
    println!();
    println!("Expected shape: every design near-perfect at shallow depths;");
    println!("accuracy decays as the correlation outruns each design's");
    println!("history reach, with TAGE-L degrading last.");
}
