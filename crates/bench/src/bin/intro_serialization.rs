//! Section I claim: "serializing the fetch unit behind branch predictions
//! in a 4-wide fetch BOOM core decreased IPC by 15 % in the Dhrystone
//! synthetic benchmark".

use cobra_bench::{pct_delta, reference, run_one_sourced, RunConfig};
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::kernels;

fn main() {
    let rc = RunConfig::from_env();
    println!("SECTION I — superscalar vs serialized branch prediction (Dhrystone)");
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "design", "IPC (superscalar)", "IPC (serialized)", "delta"
    );
    for design in designs::all() {
        let spec = kernels::dhrystone();
        let base = run_one_sourced(&rc, &design, CoreConfig::boom_4wide(), &spec, None).report;
        let mut cfg = CoreConfig::boom_4wide();
        cfg.serialize_branches = true;
        let ser = run_one_sourced(&rc, &design, cfg, &spec, None).report;
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>10}",
            design.name,
            base.counters.ipc(),
            ser.counters.ipc(),
            pct_delta(ser.counters.ipc(), base.counters.ipc()),
        );
    }
    println!();
    println!(
        "paper: −{:.0}% IPC on Dhrystone for the 4-wide core",
        reference::sec6::SERIALIZATION_IPC_LOSS_PCT
    );
}
