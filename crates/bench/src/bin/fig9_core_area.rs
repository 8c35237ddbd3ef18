//! Fig 9: area of the full 4-wide core with each of the three predictors.

use cobra_area::{core_blocks_um2, AreaBreakdown, ProcessModel};
use cobra_bench::runner::parallel_map_on;
use cobra_bench::{bar, RunConfig};
use cobra_core::composer::{BpuConfig, BranchPredictorUnit};
use cobra_core::designs;
use std::fmt::Write as _;

fn main() {
    let model = ProcessModel::finfet_7nm();
    println!("FIG 9 — Core area with each evaluated predictor");
    let core_um2: f64 = core_blocks_um2().iter().map(|(_, a)| a).sum();
    // Composing a design and walking its storage is the expensive part;
    // fan it out and print the prebuilt blocks in design order.
    let all_designs = designs::all();
    let threads = RunConfig::from_env().threads;
    let blocks = parallel_map_on(threads, &all_designs, |_, design| {
        let bpu = BranchPredictorUnit::build(design, BpuConfig::default())
            .expect("stock design composes");
        let mut b = AreaBreakdown::default();
        b.push("predictor", model.report_area_um2(&bpu.total_storage()));
        for (label, area) in core_blocks_um2() {
            b.push(label, area);
        }
        let total = b.total_um2();
        let mut out = String::new();
        writeln!(out).unwrap();
        writeln!(
            out,
            "{} core — {:.3} mm² (predictor share {:.1}%)",
            design.name,
            b.total_mm2(),
            100.0 * b.items[0].area_um2 / total
        )
        .unwrap();
        for item in &b.items {
            writeln!(
                out,
                "  {:<14} {:>9.0} µm² {:>5.1}%  {}",
                item.label,
                item.area_um2,
                100.0 * item.area_um2 / total,
                bar(item.area_um2 / total, 40)
            )
            .unwrap();
        }
        out
    });
    for block in blocks {
        print!("{block}");
    }
    println!();
    println!(
        "Paper observation to check: \"the total area of even a large predictor \
design is only a small portion of the area of a large superscalar \
out-of-order core\" (rest-of-core here: {:.3} mm²).",
        core_um2 / 1e6
    );
}
