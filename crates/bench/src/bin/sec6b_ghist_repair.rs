//! Section VI-B: speculative-execution experiment — repairing the global
//! history with versus without replaying the fetches formed from the
//! misspeculated history. The paper: replay improved mean IPC 15 % and cut
//! mispredicts 25 %, but cost 3 % IPC on Dhrystone.

use cobra_bench::runner::{run_grid, Job};
use cobra_bench::RunConfig;
use cobra_bench::{pct_delta, reference};
use cobra_core::composer::GhistRepairMode;
use cobra_core::designs;
use cobra_uarch::CoreConfig;
use cobra_workloads::{kernels, spec17, ProgramSpec};

fn main() {
    println!("SECTION VI-B — global-history repair: SnapshotOnly vs ReplayFetch");
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "bench", "IPCsnap", "IPCreplay", "dIPC", "missSnap", "missReplay", "dMiss"
    );
    let design = designs::tage_l();
    let snap_cfg = CoreConfig::boom_4wide().with_repair_mode(GhistRepairMode::SnapshotOnly);
    let replay_cfg = CoreConfig::boom_4wide().with_repair_mode(GhistRepairMode::ReplayFetch);
    // SPEC benchmarks plus Dhrystone (the replay-cost case), each as a
    // (SnapshotOnly, ReplayFetch) pair.
    let mut specs: Vec<ProgramSpec> = spec17::SPEC17_NAMES
        .iter()
        .map(|w| spec17::spec17(w))
        .collect();
    specs.push(kernels::dhrystone());
    let jobs: Vec<Job<'_>> = specs
        .iter()
        .flat_map(|spec| {
            [
                Job::new(&design, snap_cfg, spec),
                Job::new(&design, replay_cfg, spec),
            ]
        })
        .collect();
    let grid = run_grid(&RunConfig::from_env(), &jobs);

    let mut ipc_gain = Vec::new();
    let mut miss_red = Vec::new();
    for (i, w) in spec17::SPEC17_NAMES.iter().enumerate() {
        let snap = &grid[2 * i].report;
        let replay = &grid[2 * i + 1].report;
        let (si, ri) = (snap.counters.ipc(), replay.counters.ipc());
        let (sm, rm) = (snap.counters.mpki(), replay.counters.mpki());
        ipc_gain.push(100.0 * (ri - si) / si);
        if sm > 0.0 {
            miss_red.push(100.0 * (sm - rm) / sm);
        }
        println!(
            "{:<11} {:>9.3} {:>9.3} {:>9} {:>10.2} {:>10.2} {:>9}",
            w,
            si,
            ri,
            pct_delta(ri, si),
            sm,
            rm,
            pct_delta(rm, sm),
        );
    }
    let mean_gain = ipc_gain.iter().sum::<f64>() / ipc_gain.len() as f64;
    let mean_red = miss_red.iter().sum::<f64>() / miss_red.len().max(1) as f64;

    // Dhrystone: the replay *cost* case (the grid's final pair).
    let snap = &grid[grid.len() - 2].report;
    let replay = &grid[grid.len() - 1].report;
    println!();
    println!(
        "mean IPC gain from replay: {mean_gain:+.1}%   (paper: +{:.0}%)",
        reference::sec6::REPLAY_IPC_GAIN_PCT
    );
    println!(
        "mean branch-miss reduction: {mean_red:+.1}%   (paper: −{:.0}% mispredict rate)",
        reference::sec6::REPLAY_MISPREDICT_REDUCTION_PCT
    );
    println!(
        "Dhrystone IPC with replay: {}   (paper: −{:.0}% — short-loop code pays \
the replay bubbles)",
        pct_delta(replay.counters.ipc(), snap.counters.ipc()),
        reference::sec6::REPLAY_DHRYSTONE_IPC_LOSS_PCT
    );
    println!(
        "Dhrystone replays/kinst: {:.2}",
        replay.counters.history_replays as f64 * 1000.0 / replay.counters.committed_insts as f64
    );
}
