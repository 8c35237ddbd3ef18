//! The simulated host core: a BOOM-like superscalar out-of-order machine
//! with a COBRA predictor unit dropped into its fetch unit (paper Fig 6).
//!
//! The frontend is modelled cycle-by-cycle — that is where every phenomenon
//! the paper studies lives: multi-stage prediction override redirects,
//! speculative global-history updates with repair or replay, predecode
//! corrections, RAS speculation, and wrong-path predictor pollution. The
//! backend is a scoreboard out-of-order model: dispatch/issue/commit widths
//! and execution ports per Table II, data dependencies from the workload,
//! and a cache hierarchy for memory latencies.
//!
//! Execution is oracle-driven along the correct path: the workload supplies
//! the architectural instruction stream, and the frontend runs ahead down
//! *predicted* paths, fetching wrong-path instructions (static decode only)
//! that occupy real resources until the mispredicted branch resolves.

use crate::cache::MemoryHierarchy;
use crate::config::CoreConfig;
use crate::perf::{PerfCounters, PerfReport};
use crate::program::{CfiOutcome, DynInst, InstructionStream, Op, StaticInst};
use crate::ras::{RasSnapshot, ReturnAddressStack};
use cobra_core::composer::{BranchPredictorUnit, Design, GhistRepairMode, PacketId};
use cobra_core::obs::interval::{HostCounters, IntervalEngine, IntervalGauges, IntervalSeries};
use cobra_core::{
    BranchKind, ComposeError, PredictionBundle, SlotResolution, MAX_FETCH_WIDTH, SLOT_BYTES,
};
use cobra_sim::{SnapError, StateReader, StateWriter, TokenSlab};
use std::collections::VecDeque;

/// A fetch packet travelling through the prediction pipeline stages.
#[derive(Debug, Clone)]
struct InflightFetch {
    id: PacketId,
    pc: u64,
    width: u8,
    stage: u8,
    used: PredictionBundle,
    /// Stage-1 steering (and its speculative history push) happened.
    steered: bool,
}

/// An instruction in the fetch buffer / ROB.
#[derive(Debug, Clone)]
struct MicroOp {
    token: PacketId,
    slot: u8,
    op: Op,
    dep: u8,
    /// Resolved CFI outcome (correct path only).
    cfi: Option<CfiOutcome>,
    /// Precomputed: this CFI will mispredict at resolution.
    mispredict: Option<MispredictKind>,
    wrong_path: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MispredictKind {
    Direction,
    Target,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    uop: MicroOp,
    issued: bool,
    completion: u64,
}

#[derive(Debug, Clone, Copy)]
enum RasOp {
    Push(u64),
    Pop,
}

/// The call/return traffic of one fetch packet, recorded at predecode for
/// RAS repair. A slot performs at most one push or pop, so a fixed array
/// holds the worst case without a heap allocation per packet.
#[derive(Debug, Clone, Copy)]
struct RasOps {
    ops: [(u8, RasOp); MAX_FETCH_WIDTH],
    len: u8,
}

impl Default for RasOps {
    fn default() -> Self {
        Self {
            ops: [(0, RasOp::Pop); MAX_FETCH_WIDTH],
            len: 0,
        }
    }
}

impl RasOps {
    fn push(&mut self, slot: u8, op: RasOp) {
        self.ops[self.len as usize] = (slot, op);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = (u8, RasOp)> + '_ {
        self.ops[..self.len as usize].iter().copied()
    }
}

/// Book-keeping the core keeps per accepted fetch packet.
#[derive(Debug, Clone, Default)]
struct TokenInfo {
    remaining: u32,
    ras_snap: Option<RasSnapshot>,
    ras_ops: RasOps,
}

/// Biased `Option<MispredictKind>` codec: 0 = `None`, 1 = direction,
/// 2 = target.
fn encode_misp(m: Option<MispredictKind>) -> u64 {
    match m {
        None => 0,
        Some(MispredictKind::Direction) => 1,
        Some(MispredictKind::Target) => 2,
    }
}

fn decode_misp(r: &mut StateReader<'_>) -> Result<Option<MispredictKind>, SnapError> {
    Ok(match r.read_u64_capped("mispredict kind", 2)? {
        0 => None,
        1 => Some(MispredictKind::Direction),
        _ => Some(MispredictKind::Target),
    })
}

impl InflightFetch {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.id);
        w.write_u64(self.pc);
        w.write_u64(u64::from(self.width));
        w.write_u64(u64::from(self.stage));
        self.used.save_state(w);
        w.write_bool(self.steered);
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        Ok(InflightFetch {
            id: r.read_u64("fetch id")?,
            pc: r.read_u64("fetch pc")?,
            width: r.read_u64_capped("fetch width", MAX_FETCH_WIDTH as u64)? as u8,
            stage: r.read_u64_capped("fetch stage", 0xff)? as u8,
            used: PredictionBundle::load_state(r)?,
            steered: r.read_bool("fetch steered")?,
        })
    }
}

impl MicroOp {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.token);
        w.write_u64(u64::from(self.slot));
        self.op.save_state(w);
        w.write_u64(u64::from(self.dep));
        w.write_bool(self.cfi.is_some());
        if let Some(c) = &self.cfi {
            c.save_state(w);
        }
        w.write_u64(encode_misp(self.mispredict));
        w.write_bool(self.wrong_path);
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        Ok(MicroOp {
            token: r.read_u64("uop token")?,
            slot: r.read_u64_capped("uop slot", 0xff)? as u8,
            op: Op::load_state(r)?,
            dep: r.read_u64_capped("uop dep", 0xff)? as u8,
            cfi: if r.read_bool("uop has cfi")? {
                Some(CfiOutcome::load_state(r)?)
            } else {
                None
            },
            mispredict: decode_misp(r)?,
            wrong_path: r.read_bool("uop wrong path")?,
        })
    }
}

impl RobEntry {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.seq);
        self.uop.save_state(w);
        w.write_bool(self.issued);
        w.write_u64(self.completion);
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        Ok(RobEntry {
            seq: r.read_u64("rob seq")?,
            uop: MicroOp::load_state(r)?,
            issued: r.read_bool("rob issued")?,
            completion: r.read_u64("rob completion")?,
        })
    }
}

impl RasOps {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(u64::from(self.len));
        for (slot, op) in self.iter() {
            w.write_u64(u64::from(slot));
            match op {
                RasOp::Push(a) => {
                    w.write_u64(0);
                    w.write_u64(a);
                }
                RasOp::Pop => w.write_u64(1),
            }
        }
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        let len = r.read_u64_capped("ras op count", MAX_FETCH_WIDTH as u64)?;
        let mut ops = RasOps::default();
        for _ in 0..len {
            let slot = r.read_u64_capped("ras op slot", 0xff)? as u8;
            let op = match r.read_u64_capped("ras op kind", 1)? {
                0 => RasOp::Push(r.read_u64("ras push addr")?),
                _ => RasOp::Pop,
            };
            ops.push(slot, op);
        }
        Ok(ops)
    }
}

impl TokenInfo {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(u64::from(self.remaining));
        w.write_bool(self.ras_snap.is_some());
        if let Some(s) = &self.ras_snap {
            s.save_state(w);
        }
        self.ras_ops.save_state(w);
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        Ok(TokenInfo {
            remaining: r.read_u64_capped("token remaining", u64::from(u32::MAX))? as u32,
            ras_snap: if r.read_bool("token has ras snap")? {
                Some(RasSnapshot::load_state(r)?)
            } else {
                None
            },
            ras_ops: RasOps::load_state(r)?,
        })
    }
}

/// The simulated core.
pub struct Core<S> {
    cfg: CoreConfig,
    bpu: BranchPredictorUnit,
    mem: MemoryHierarchy,
    ras: ReturnAddressStack,
    stream: S,
    cycle: u64,
    counters: PerfCounters,

    // Frontend state.
    fetch_pc: u64,
    fetch_stall_until: u64,
    fetch_pipeline: VecDeque<InflightFetch>,
    fetch_buffer: VecDeque<MicroOp>,
    expected_pc: u64,
    on_wrong_path: bool,
    lookahead: Option<DynInst>,
    stream_done: bool,
    /// Block-batched read-ahead: instructions pulled from the stream in
    /// chunks so per-instruction fetch pays an index + bounds check rather
    /// than a full stream cursor walk. Never serialized — `stream_reads`
    /// counts only *consumed* instructions, so a restore repositions the
    /// fresh stream exactly at the first unconsumed one.
    inst_buf: Vec<DynInst>,
    inst_pos: usize,
    /// Total `next_inst` calls made on the stream — the workload cursor.
    /// A checkpoint restore replays this many reads against a fresh
    /// deterministic stream to reposition it.
    stream_reads: u64,

    // Backend state.
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    /// completion time per recent sequence number (ring keyed by seq).
    completion_ring: Vec<(u64, u64)>,
    /// Per-packet bookkeeping, keyed by the sequential history-file token
    /// (live window bounded by the history file's capacity).
    tokens: TokenSlab<TokenInfo>,
    pending_resolves: Vec<(PacketId, SlotResolution, Option<MispredictKind>, u64)>,
    committed_before: u64,
    last_commit_cycle: u64,

    // Issue-scan fast path: every ROB entry at an index below this is
    // already issued, so the per-cycle scan starts here instead of at the
    // head. Maintained on commit (pop_front), squash (truncation), and
    // state load; purely a scan hint — it never changes issue decisions.
    issue_skip: usize,

    // Per-cycle scratch buffers, kept across cycles to avoid reallocating
    // on the hot path.
    issue_scratch: Vec<usize>,
    due_scratch: Vec<(PacketId, SlotResolution, Option<MispredictKind>, u64)>,
    uop_scratch: Vec<MicroOp>,

    /// Serialized host state (everything but the BPU and the stream)
    /// captured by [`arm_baseline`](Self::arm_baseline).
    host_baseline: Option<Vec<u8>>,

    /// Interval telemetry engine, armed for the measured region of
    /// [`run_with_warmup`](Self::run_with_warmup). Boxed so the off case
    /// costs the run loop a single pointer-null check.
    interval: Option<Box<IntervalEngine>>,
    /// Interval length for the next measured run; `0` leaves telemetry
    /// off.
    interval_n: u64,
    /// The finished series of the last measured run.
    interval_series: Option<IntervalSeries>,
    /// Progress heartbeat: `(every_insts, next_threshold, callback)`,
    /// fired from `run` with `(committed_insts, cycles)`.
    progress: Option<ProgressHook>,
}

/// Progress-callback state: period in committed instructions, the next
/// firing threshold, and the callback itself.
type ProgressHook = (u64, u64, Box<dyn FnMut(u64, u64) + Send>);

const COMPLETION_RING: usize = 512;

/// Instructions pulled per [`InstructionStream::next_block`] call — a few
/// hundred fetch packets' worth, small enough to stay cache-resident.
const FETCH_BATCH: usize = 4096;

impl<S: InstructionStream> Core<S> {
    /// Builds a core around `design` running `stream`.
    ///
    /// # Errors
    ///
    /// Propagates composition errors from the predictor design.
    pub fn new(design: &Design, cfg: CoreConfig, stream: S) -> Result<Self, ComposeError> {
        let mut bpu_cfg = cfg.bpu;
        bpu_cfg.fetch_width = cfg.fetch_slots();
        let bpu = BranchPredictorUnit::build(design, bpu_cfg)?;
        let entry = stream.entry_pc();
        Ok(Self {
            mem: MemoryHierarchy::new(&cfg),
            ras: ReturnAddressStack::new(cfg.ras_entries),
            bpu,
            stream,
            cycle: 0,
            counters: PerfCounters::default(),
            fetch_pc: entry,
            fetch_stall_until: 0,
            fetch_pipeline: VecDeque::new(),
            fetch_buffer: VecDeque::new(),
            expected_pc: entry,
            on_wrong_path: false,
            lookahead: None,
            stream_done: false,
            inst_buf: Vec::new(),
            inst_pos: 0,
            stream_reads: 0,
            rob: VecDeque::new(),
            next_seq: 0,
            completion_ring: vec![(u64::MAX, 0); COMPLETION_RING],
            tokens: TokenSlab::new(bpu_cfg.history_file_entries),
            pending_resolves: Vec::new(),
            committed_before: 0,
            last_commit_cycle: 0,
            issue_skip: 0,
            issue_scratch: Vec::new(),
            due_scratch: Vec::new(),
            uop_scratch: Vec::new(),
            host_baseline: None,
            interval: None,
            interval_n: 0,
            interval_series: None,
            progress: None,
            cfg,
        })
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Consumes the core and hands back its instruction stream — the
    /// cursor stays wherever fetch left it (committed path plus read-ahead
    /// batching). Phase sampling uses this to share one workload generator
    /// across the short-lived cores of successive slices: each slice
    /// core's [`SkipStream`](crate::SkipStream) reports its final
    /// [`pulls`](crate::SkipStream::pulls), so the next slice knows how
    /// far the shared cursor already advanced.
    pub fn into_stream(self) -> S {
        self.stream
    }

    /// The attached predictor unit.
    pub fn bpu(&self) -> &BranchPredictorUnit {
        &self.bpu
    }

    /// Mutable access to the attached predictor unit (observability
    /// configuration: PC attribution, trace sink retargeting).
    pub fn bpu_mut(&mut self) -> &mut BranchPredictorUnit {
        &mut self.bpu
    }

    /// Current counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Requests interval telemetry with `n` committed instructions per
    /// interval for the next [`run_with_warmup`](Self::run_with_warmup)
    /// (`0`, the default, disables).
    pub fn set_interval(&mut self, n: u64) {
        self.interval_n = n;
    }

    /// Takes the interval series collected by the last
    /// [`run_with_warmup`](Self::run_with_warmup), if telemetry was armed.
    pub fn take_intervals(&mut self) -> Option<IntervalSeries> {
        self.interval_series.take()
    }

    /// Installs a progress heartbeat: `cb(committed_insts, cycles)` fires
    /// from [`run`](Self::run) every `every` committed instructions
    /// (`0` uninstalls).
    pub fn set_progress(&mut self, every: u64, cb: Box<dyn FnMut(u64, u64) + Send>) {
        self.progress = if every == 0 {
            None
        } else {
            Some((every, self.counters.committed_insts + every, cb))
        };
    }

    /// Live host-counter snapshot for interval telemetry: the counters
    /// mirror, plus the in-progress cycle count (`run` writes
    /// `counters.cycles` back only when it returns).
    fn host_snapshot(&self) -> HostCounters {
        let mut h = self.counters.to_host();
        h.cycles = self.cycle;
        h
    }

    /// Occupancy gauges at the present point in the run: history-file
    /// occupancy, RAS depth and high-water, and per-component SRAM
    /// touched-row utilization. Sampled at every interval boundary, and
    /// also an observability accessor for end-of-run reporting
    /// (`cobra-trace`).
    pub fn interval_gauges(&self) -> IntervalGauges {
        IntervalGauges {
            hf_occupancy: self.bpu.in_flight() as u64,
            ras_depth: self.ras.depth() as u64,
            ras_high_water: self.ras.depth_high_water() as u64,
            sram_rows: self.bpu.sram_utilization(),
        }
    }

    /// Closes the current telemetry interval at the present commit point.
    #[cold]
    fn close_interval(&mut self) {
        let host = self.host_snapshot();
        let attr = self.bpu.attribution_report();
        let gauges = self.interval_gauges();
        if let Some(iv) = self.interval.as_deref_mut() {
            iv.close(host, attr, gauges);
        }
    }

    /// Fires the progress callback and re-arms its threshold.
    #[cold]
    fn fire_progress(&mut self) {
        let (insts, cycles) = (self.counters.committed_insts, self.cycle);
        if let Some((every, next_at, cb)) = self.progress.as_mut() {
            *next_at = insts + *every;
            cb(insts, cycles);
        }
    }

    fn block_base(&self, pc: u64) -> u64 {
        pc & !(self.cfg.fetch_bytes - 1)
    }

    fn packet_width(&self, pc: u64) -> u8 {
        let base = ((self.block_base(pc) + self.cfg.fetch_bytes - pc) / SLOT_BYTES) as u8;
        if !self.cfg.serialize_branches {
            return base;
        }
        // Serialized fetch (Section I experiment): one branch prediction
        // per cycle, so the packet ends at the first conditional branch.
        for i in 0..base {
            let st = self.stream.inst_at(pc + i as u64 * SLOT_BYTES);
            if st.cfi_kind == Some(BranchKind::Conditional) {
                return i + 1;
            }
        }
        base
    }

    /// The packet's next fetch PC: its redirect target, or the address just
    /// past its (possibly serialization-narrowed) last slot.
    fn packet_next_pc(&self, pc: u64, width: u8, b: &PredictionBundle) -> u64 {
        match b.redirect() {
            Some((_, target)) => target,
            None => pc + width as u64 * SLOT_BYTES,
        }
    }

    fn peek_inst(&mut self) -> Option<&DynInst> {
        if self.lookahead.is_none() && !self.stream_done {
            if self.inst_pos == self.inst_buf.len() {
                self.inst_buf.clear();
                self.inst_pos = 0;
                self.stream.next_block(&mut self.inst_buf, FETCH_BATCH);
            }
            if self.inst_pos < self.inst_buf.len() {
                self.lookahead = Some(self.inst_buf[self.inst_pos]);
                self.inst_pos += 1;
                self.stream_reads += 1;
            } else {
                self.stream_done = true;
            }
        }
        self.lookahead.as_ref()
    }

    fn take_inst(&mut self) -> Option<DynInst> {
        self.peek_inst();
        self.lookahead.take()
    }

    /// Runs until `max_insts` instructions commit or the stream ends.
    /// Returns the performance report.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (no commit for 100 000 cycles) —
    /// this indicates a modelling bug, never a workload property.
    pub fn run(&mut self, max_insts: u64, workload_name: &str) -> PerfReport {
        while self.counters.committed_insts < max_insts {
            self.step();
            if let Some(iv) = self.interval.as_deref() {
                if iv.due(self.counters.committed_insts) {
                    self.close_interval();
                }
            }
            if let Some((_, next_at, _)) = &self.progress {
                if self.counters.committed_insts >= *next_at {
                    self.fire_progress();
                }
            }
            if self.stream_done
                && self.lookahead.is_none()
                && self.rob.is_empty()
                && self.fetch_buffer.is_empty()
            {
                break;
            }
            assert!(
                self.cycle - self.last_commit_cycle < 100_000,
                "deadlock: no commit since cycle {} (now {}): rob {} (head {:?}) buffer {} hf {} pipeline {:?} on_wrong_path {} pending {} expected {:#x} fetch_pc {:#x}",
                self.last_commit_cycle,
                self.cycle,
                self.rob.len(),
                self.rob.front(),
                self.fetch_buffer.len(),
                self.bpu.in_flight(),
                self.fetch_pipeline.iter().map(|f| f.stage).collect::<Vec<_>>(),
                self.on_wrong_path,
                self.pending_resolves.len(),
                self.expected_pc,
                self.fetch_pc
            );
        }
        self.counters.cycles = self.cycle;
        self.bpu.flush_tracers();
        PerfReport {
            workload: workload_name.to_string(),
            design: self.bpu.design_name().to_string(),
            counters: self.counters,
            attribution: self.bpu.attribution_report(),
        }
    }

    /// Runs `warmup` instructions (training predictors and caches), then
    /// measures the next `measure` instructions, reporting only the
    /// measured region.
    pub fn run_with_warmup(
        &mut self,
        warmup: u64,
        measure: u64,
        workload_name: &str,
    ) -> PerfReport {
        self.run(warmup, workload_name);
        let baseline = self.counters;
        let baseline_attr = self.bpu.attribution_report();
        if self.interval_n > 0 {
            self.interval = Some(Box::new(IntervalEngine::new(
                self.interval_n,
                self.host_snapshot(),
                baseline_attr.clone(),
            )));
        }
        let mut report = self.run(warmup + measure, workload_name);
        if let Some(iv) = self.interval.take() {
            let gauges = self.interval_gauges();
            self.interval_series =
                Some(iv.finish(self.host_snapshot(), self.bpu.attribution_report(), gauges));
        }
        report.counters = report.counters.delta(&baseline);
        report.attribution = report.attribution.delta(&baseline_attr);
        report
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.bpu.tick();
        self.commit_stage();
        self.execute_stage();
        self.dispatch_stage();
        self.frontend_stage();
        if self.counters.committed_insts > self.committed_before {
            self.committed_before = self.counters.committed_insts;
            self.last_commit_cycle = self.cycle;
        }
    }

    // ---------------------------------------------------------------- commit

    fn commit_stage(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            // An instruction commits the cycle *after* it completes, so a
            // branch's resolution (processed in the execute stage) always
            // precedes its commit.
            if !head.issued || head.completion >= self.cycle {
                break;
            }
            let entry = self.rob.pop_front().expect("front exists");
            self.issue_skip = self.issue_skip.saturating_sub(1);
            debug_assert!(
                !entry.uop.wrong_path,
                "wrong-path op at commit: cycle {} token {} slot {} op {:?} cfi {:?} misp {:?} on_wrong_path {} expected_pc {:#x}",
                self.cycle, entry.uop.token, entry.uop.slot, entry.uop.op, entry.uop.cfi, entry.uop.mispredict, self.on_wrong_path, self.expected_pc
            );
            self.counters.committed_insts += 1;
            let token = entry.uop.token;
            if let Some(info) = self.tokens.get_mut(token) {
                info.remaining = info.remaining.saturating_sub(1);
                if info.remaining == 0 {
                    self.tokens.remove(token);
                    if let Some(pkt) = self.bpu.commit_front() {
                        for r in &pkt.resolutions {
                            self.counters.cfis += 1;
                            if r.kind == BranchKind::Conditional {
                                self.counters.cond_branches += 1;
                            }
                        }
                        if let Some(iv) = self.interval.as_deref_mut() {
                            for r in &pkt.resolutions {
                                iv.note_branch(pkt.pc + u64::from(r.slot) * SLOT_BYTES);
                            }
                        }
                    }
                }
            }
        }
    }

    // --------------------------------------------------------------- execute

    fn exec_latency(&mut self, op: &Op) -> u64 {
        match op {
            Op::Int => 1,
            Op::Mul => 3,
            Op::Div => 12,
            Op::Fp => 4,
            Op::Load { addr } => 1 + self.mem.data(*addr),
            Op::Store { addr } => {
                let _ = self.mem.data(*addr);
                1
            }
            Op::Cfi => self.cfg.branch_resolve_latency,
        }
    }

    fn dep_ready(&self, seq: u64, dep: u8, oldest_live: u64) -> Option<u64> {
        if dep == 0 {
            return Some(0);
        }
        let Some(producer) = seq.checked_sub(dep as u64) else {
            return Some(0); // dependency precedes the program: always ready
        };
        if producer < oldest_live {
            return Some(0); // producer already committed
        }
        let (ring_seq, completion) =
            self.completion_ring[(producer % COMPLETION_RING as u64) as usize];
        if ring_seq == producer {
            Some(completion)
        } else {
            None // producer dispatched but not issued yet
        }
    }

    fn execute_stage(&mut self) {
        // Issue.
        let oldest_live = self.rob.front().map_or(self.next_seq, |e| e.seq);
        let mut alu = self.cfg.alu_ports;
        let mut mem = self.cfg.mem_ports;
        let mut fp = self.cfg.fp_ports;
        let mut examined = 0;
        let mut to_issue = std::mem::take(&mut self.issue_scratch);
        to_issue.clear();
        // Skip the already-issued head of the ROB (committed-but-waiting
        // entries); `issue_skip` conservatively under-counts, so the
        // `issued` check below still guards every examined entry.
        while self.rob.get(self.issue_skip).is_some_and(|e| e.issued) {
            self.issue_skip += 1;
        }
        for (k, e) in self.rob.range(self.issue_skip..).enumerate() {
            let i = self.issue_skip + k;
            if examined >= self.cfg.issue_window || (alu == 0 && mem == 0 && fp == 0) {
                break;
            }
            if e.issued {
                continue;
            }
            examined += 1;
            let ready_at = match self.dep_ready(e.seq, e.uop.dep, oldest_live) {
                Some(t) => t,
                None => continue,
            };
            if ready_at > self.cycle {
                continue;
            }
            let port = match e.uop.op {
                Op::Load { .. } | Op::Store { .. } => &mut mem,
                Op::Fp => &mut fp,
                _ => &mut alu,
            };
            if *port == 0 {
                continue;
            }
            *port -= 1;
            to_issue.push(i);
        }
        for &i in &to_issue {
            let (op, seq) = {
                let e = &self.rob[i];
                (e.uop.op, e.seq)
            };
            let latency = self.exec_latency(&op);
            let e = &mut self.rob[i];
            e.issued = true;
            e.completion = self.cycle + latency;
            self.completion_ring[(seq % COMPLETION_RING as u64) as usize] = (seq, e.completion);
            // Schedule branch resolution at completion.
            if let (Op::Cfi, Some(cfi), false) = (&e.uop.op, &e.uop.cfi, e.uop.wrong_path) {
                let pending = (
                    e.uop.token,
                    SlotResolution {
                        slot: e.uop.slot,
                        kind: cfi.kind,
                        taken: cfi.taken,
                        target: cfi.target,
                    },
                    e.uop.mispredict,
                    e.completion,
                );
                self.pending_resolves.push(pending);
            }
        }
        self.issue_scratch = to_issue;
        // Process resolutions completing this cycle (issued earlier).
        // We keep it simple: resolve at issue time but effective at the
        // completion cycle via a pending queue.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        let cycle = self.cycle;
        self.pending_resolves.retain(|r| {
            if r.3 <= cycle {
                due.push(*r);
                false
            } else {
                true
            }
        });
        for &(token, res, misp, _) in &due {
            self.resolve_branch(token, res, misp);
        }
        self.due_scratch = due;
    }

    fn resolve_branch(
        &mut self,
        token: PacketId,
        res: SlotResolution,
        misp: Option<MispredictKind>,
    ) {
        let redirect = self.bpu.resolve(token, res, misp.is_some());
        let Some(kind) = misp else { return };
        let Some(target) = redirect else {
            // The entry vanished (already squashed by an older redirect
            // this cycle): the resolution is stale.
            return;
        };
        match kind {
            MispredictKind::Direction => self.counters.cond_mispredicts += 1,
            MispredictKind::Target => self.counters.target_mispredicts += 1,
        }

        // Flush the ROB and fetch buffer younger than the branch.
        // Flush everything younger than the branch (in program order:
        // later tokens, or later slots of the same packet).
        while self
            .rob
            .back()
            .is_some_and(|e| e.uop.token > token || (e.uop.token == token && e.uop.slot > res.slot))
        {
            let e = self.rob.pop_back().expect("back exists");
            if let Some(info) = self.tokens.get_mut(e.uop.token) {
                info.remaining = info.remaining.saturating_sub(1);
            }
        }
        self.issue_skip = self.issue_skip.min(self.rob.len());
        for uop in self.fetch_buffer.drain(..) {
            if let Some(info) = self.tokens.get_mut(uop.token) {
                info.remaining = info.remaining.saturating_sub(1);
            }
        }
        // Squash in-flight fetches (their history-file entries are already
        // gone via `resolve`).
        self.fetch_pipeline.clear();

        // Repair the RAS: restore the mispredicting packet's snapshot and
        // replay its pre-branch call/ret traffic.
        if let Some(info) = self.tokens.get(token) {
            if let Some(snap) = info.ras_snap {
                self.ras.restore(snap);
                for (slot, op) in info.ras_ops.iter() {
                    if slot <= res.slot {
                        match op {
                            RasOp::Push(a) => self.ras.push(a),
                            RasOp::Pop => {
                                let _ = self.ras.pop();
                            }
                        }
                    }
                }
            }
        }
        // Drop bookkeeping for squashed tokens. Tokens with remaining == 0
        // here were entirely wrong-path (never to commit).
        self.tokens.truncate_above(token);
        // Trim the mispredicted token's own count to what survives in the
        // ROB (its post-branch slots were flushed).
        if let Some(info) = self.tokens.get_mut(token) {
            // Everything younger than the branch was just popped, so the
            // token's surviving slots are exactly the ROB's back suffix.
            let live = self
                .rob
                .iter()
                .rev()
                .take_while(|e| e.uop.token == token)
                .count() as u32;
            info.remaining = live;
        }

        // Redirect fetch down the corrected path.
        self.fetch_pc = target;
        self.expected_pc = target;
        self.on_wrong_path = false;
        if self.cfg.repair_stalls_fetch {
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(self.cycle + self.bpu.last_repair_cycles);
        }
    }

    // --------------------------------------------------------------- dispatch

    fn dispatch_stage(&mut self) {
        for _ in 0..self.cfg.decode_width {
            if self.rob.len() >= self.cfg.rob_entries {
                self.counters.rob_stall_cycles += 1;
                break;
            }
            let Some(uop) = self.fetch_buffer.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            // Invalidate any stale ring slot for this seq.
            self.completion_ring[(seq % COMPLETION_RING as u64) as usize] = (u64::MAX, 0);
            self.rob.push_back(RobEntry {
                seq,
                uop,
                issued: false,
                completion: u64::MAX,
            });
        }
    }

    // --------------------------------------------------------------- frontend

    fn frontend_stage(&mut self) {
        let depth = self.bpu.depth();
        // 1. Advance stages (oldest first, respecting structural slots).
        let mut prev_stage = depth + 1;
        for f in self.fetch_pipeline.iter_mut() {
            let want = (f.stage + 1).min(depth);
            f.stage = want.min(prev_stage - 1).max(f.stage);
            prev_stage = f.stage;
        }

        // 2. Override checks at stages >= 2 (oldest first; first redirect
        // wins and squashes everything younger).
        let mut redirect: Option<(usize, u64)> = None;
        for (i, f) in self.fetch_pipeline.iter().enumerate() {
            if f.stage < 2 {
                continue;
            }
            let Some(new) = self.bpu.prediction(f.id, f.stage) else {
                continue;
            };
            // Compare in place: the prediction is unchanged on almost every
            // cycle, and the stable case should not pay a bundle copy.
            if *new == f.used {
                continue;
            }
            let new = *new;
            let old_next = self.packet_next_pc(f.pc, f.width, &f.used);
            let new_next = self.packet_next_pc(f.pc, f.width, &new);
            if new_next != old_next {
                redirect = Some((i, new_next));
                self.counters.override_redirects += 1;
                break;
            } else if !new.history_bits().eq(f.used.history_bits()) {
                match self.bpu.config().repair_mode {
                    GhistRepairMode::ReplayFetch => {
                        redirect = Some((i, new_next));
                        self.counters.history_replays += 1;
                        break;
                    }
                    GhistRepairMode::SnapshotOnly => {
                        let id = f.id;
                        // Defer the mutable work out of the iteration.
                        redirect = Some((i, u64::MAX));
                        let _ = id;
                        break;
                    }
                }
            } else {
                // Prediction refined without observable change; adopt it.
                // (Handled below via the same adoption path.)
            }
        }
        if let Some((i, new_next)) = redirect {
            let (fid, fstage) = {
                let f = &self.fetch_pipeline[i];
                (f.id, f.stage)
            };
            let new = *self
                .bpu
                .prediction(fid, fstage)
                .expect("prediction just read");
            if new_next == u64::MAX {
                // SnapshotOnly (original design): the prediction is adopted
                // but the misspeculated history is left unrepaired and
                // nothing is replayed.
                self.bpu.revise_quiet(fid, &new);
                self.fetch_pipeline[i].used = new;
            } else {
                self.bpu.revise(fid, &new, true);
                self.fetch_pipeline[i].used = new;
                while self.fetch_pipeline.len() > i + 1 {
                    self.fetch_pipeline.pop_back();
                }
                self.fetch_pc = new_next;
            }
        } else {
            // Adopt refined-but-equivalent bundles.
            for f in self.fetch_pipeline.iter_mut() {
                if f.stage >= 2 {
                    if let Some(new) = self.bpu.prediction(f.id, f.stage) {
                        f.used = *new;
                    }
                }
            }
        }

        // 3. Stage-1 steering for the packet fetched last cycle.
        if let Some(f) = self.fetch_pipeline.back_mut() {
            if f.stage == 1 && !f.steered {
                if let Some(b) = self.bpu.prediction(f.id, 1) {
                    f.used = *b;
                    f.steered = true;
                    self.bpu.speculate(f.id, 1);
                    self.fetch_pc = match f.used.redirect() {
                        Some((_, t)) => t,
                        None => f.pc + f.width as u64 * SLOT_BYTES,
                    };
                }
            }
        }

        // 4. Predecode + enqueue the packet at the final stage.
        if let Some(front) = self.fetch_pipeline.front() {
            let room = self.cfg.fetch_buffer_insts
                - self.fetch_buffer.len().min(self.cfg.fetch_buffer_insts);
            if front.stage >= depth && room >= front.width as usize {
                let f = self.fetch_pipeline.pop_front().expect("front exists");
                self.predecode_and_enqueue(f);
            }
        }

        // 5. Fetch a new packet.
        let stalled = self.cycle < self.fetch_stall_until;
        if stalled {
            self.counters.icache_stall_cycles += 1;
        }
        let has_slot = self.fetch_pipeline.len() < depth as usize;
        if !stalled
            && has_slot
            && !(self.stream_done && self.lookahead.is_none() && !self.on_wrong_path)
        {
            let pc = self.fetch_pc;
            let extra = self.mem.fetch(self.block_base(pc));
            if extra > 0 {
                self.fetch_stall_until = self.cycle + extra;
                self.counters.fetch_bubbles += 1;
            } else {
                let width = self.packet_width(pc);
                if let Some(id) = self.bpu.query_packet(pc, width) {
                    self.fetch_pipeline.push_back(InflightFetch {
                        id,
                        pc,
                        width,
                        stage: 0,
                        used: PredictionBundle::new(width),
                        steered: false,
                    });
                    // Provisional next fetch: fall through; stage-1
                    // steering revises this next cycle.
                    self.fetch_pc = pc + width as u64 * SLOT_BYTES;
                } else {
                    self.counters.fetch_bubbles += 1; // history file full
                }
            }
        } else if has_slot {
            self.counters.fetch_bubbles += 1;
        }
    }

    /// Ground truth for one slot of a packet being predecoded.
    fn slot_truth(&mut self, slot_pc: u64, consuming: bool) -> (StaticInst, Option<DynInst>) {
        if consuming {
            if let Some(inst) = self.peek_inst() {
                if inst.pc == slot_pc {
                    let d = self.take_inst().expect("peeked");
                    let st = StaticInst {
                        op: d.op,
                        cfi_kind: d.cfi.map(|c| c.kind),
                        target: d.cfi.and_then(|c| {
                            if c.kind == BranchKind::Indirect || c.kind == BranchKind::Ret {
                                None
                            } else {
                                Some(c.target)
                            }
                        }),
                    };
                    return (st, Some(d));
                }
            }
            // Alignment slip: treat as wrong-path filler.
        }
        (self.stream.inst_at(slot_pc), None)
    }

    fn predecode_and_enqueue(&mut self, f: InflightFetch) {
        let mut corrected = f.used;
        let ras_snap = self.ras.snapshot();
        let mut ras_ops = RasOps::default();

        // A packet is on the correct path iff it starts exactly at the next
        // architectural PC.
        let mut consuming = !self.on_wrong_path && f.pc == self.expected_pc;
        if !self.on_wrong_path && f.pc != self.expected_pc {
            // Steering drift (e.g. stale provisional fall-through): discard
            // this packet and refetch the architectural path.
            self.bpu.squash_from(f.id);
            self.fetch_pipeline.clear();
            self.fetch_pc = self.expected_pc;
            self.counters.fetch_bubbles += 1;
            return;
        }

        let mut uops = std::mem::take(&mut self.uop_scratch);
        uops.clear();
        let mut diverged = false;
        for s in 0..f.width {
            let slot_pc = f.pc + s as u64 * SLOT_BYTES;
            let should_consume = consuming && !diverged;
            let (truth, dyn_inst) = self.slot_truth(slot_pc, should_consume);
            if should_consume && dyn_inst.is_none() {
                // Alignment slip: the architectural stream is not at this
                // slot (a malformed or self-modifying stream). Truncate the
                // packet here; the drift check on the next packet resteers
                // fetch to the architectural PC.
                for j in (s as usize)..f.width as usize {
                    *corrected.slot_mut(j) = Default::default();
                }
                break;
            }

            // Predecode fixes the slot's CFI information.
            {
                let sp = corrected.slot_mut(s as usize);
                match truth.cfi_kind {
                    None => {
                        sp.kind = None;
                        sp.taken = None;
                        sp.set_target(None);
                    }
                    Some(kind) => {
                        sp.kind = Some(kind);
                        match kind {
                            BranchKind::Conditional | BranchKind::Jump | BranchKind::Call => {
                                // Direct targets are computable at predecode.
                                if let Some(t) = truth.target {
                                    sp.set_target(Some(t));
                                }
                            }
                            BranchKind::Ret => {
                                sp.set_target(Some(self.ras.peek()));
                            }
                            BranchKind::Indirect => {
                                // Only the BTB's guess is available.
                            }
                        }
                        if kind != BranchKind::Conditional {
                            sp.taken = None;
                        }
                    }
                }
            }
            let sp = *corrected.slot(s as usize);

            // RAS speculation at predecode.
            match sp.kind {
                Some(BranchKind::Call) => {
                    self.ras.push(slot_pc + SLOT_BYTES);
                    ras_ops.push(s, RasOp::Push(slot_pc + SLOT_BYTES));
                }
                Some(BranchKind::Ret) => {
                    let _ = self.ras.pop();
                    ras_ops.push(s, RasOp::Pop);
                }
                _ => {}
            }

            // Build the micro-op.
            if let Some(d) = dyn_inst {
                let predicted_taken = match sp.kind {
                    Some(BranchKind::Conditional) => sp.taken == Some(true),
                    Some(_) => true,
                    None => false,
                };
                let mispredict = d.cfi.and_then(|c| {
                    if c.kind == BranchKind::Conditional && c.taken != predicted_taken {
                        Some(MispredictKind::Direction)
                    } else if c.taken && predicted_taken && sp.target() != Some(c.target) {
                        Some(MispredictKind::Target)
                    } else {
                        None
                    }
                });
                uops.push(MicroOp {
                    token: f.id,
                    slot: s,
                    op: d.op,
                    dep: d.dep,
                    cfi: d.cfi,
                    mispredict,
                    wrong_path: false,
                });
                // Divergence bookkeeping.
                if let Some(c) = d.cfi {
                    if mispredict.is_some() {
                        // The architectural path continues at the real
                        // outcome; fetch will follow the (wrong) prediction.
                        self.expected_pc = if c.taken {
                            c.target
                        } else {
                            slot_pc + SLOT_BYTES
                        };
                        self.on_wrong_path = true;
                        diverged = true;
                    } else if c.taken {
                        self.expected_pc = c.target;
                    } else {
                        self.expected_pc = slot_pc + SLOT_BYTES;
                    }
                } else {
                    self.expected_pc = slot_pc + SLOT_BYTES;
                }
            } else {
                uops.push(MicroOp {
                    token: f.id,
                    slot: s,
                    op: truth.op,
                    dep: 0,
                    cfi: None,
                    mispredict: None,
                    wrong_path: true,
                });
                consuming = false;
            }

            // The packet architecturally ends at the first slot the
            // *corrected prediction* redirects on, or — in the serialized
            // experiment — at the first conditional branch (one direction
            // prediction per cycle).
            let ends = sp.wants_redirect() && sp.target().is_some();
            if ends {
                // Clear any predicted junk past the cut.
                for j in (s as usize + 1)..f.width as usize {
                    *corrected.slot_mut(j) = Default::default();
                }
                break;
            }
            // A predicted-taken slot with no target cannot redirect: the
            // packet continues (fall-through), to be fixed at execute.
        }

        // If predecode changed the observable prediction, revise.
        let old_next = self.packet_next_pc(f.pc, f.width, &f.used);
        let new_next = self.packet_next_pc(f.pc, f.width, &corrected);
        let hist_changed = !f.used.history_bits().eq(corrected.history_bits());
        if new_next != old_next {
            self.bpu.revise(f.id, &corrected, true);
            self.fetch_pipeline.clear();
            self.fetch_pc = new_next;
            self.counters.override_redirects += 1;
        } else if hist_changed {
            match self.bpu.config().repair_mode {
                GhistRepairMode::ReplayFetch => {
                    self.bpu.revise(f.id, &corrected, true);
                    self.fetch_pipeline.clear();
                    self.fetch_pc = new_next;
                    self.counters.history_replays += 1;
                }
                GhistRepairMode::SnapshotOnly => {
                    self.bpu.revise_quiet(f.id, &corrected);
                }
            }
        }

        // Accept into the history file and enqueue the micro-ops.
        self.bpu.accept(f.id, corrected);
        let info = TokenInfo {
            // An empty packet still retires one zero-cost marker op below.
            remaining: uops.len().max(1) as u32,
            ras_snap: Some(ras_snap),
            ras_ops,
        };
        self.tokens.insert(f.id, info);
        if uops.is_empty() {
            // Nothing to commit from this packet: retire its entry when it
            // reaches the head. Represent with a zero-cost marker op.
            self.fetch_buffer.push_back(MicroOp {
                token: f.id,
                slot: 0,
                op: Op::Int,
                dep: 0,
                cfi: None,
                mispredict: None,
                wrong_path: false,
            });
        } else {
            self.fetch_buffer.extend(uops.drain(..));
        }
        self.uop_scratch = uops;
    }

    /// Serializes the complete core state — predictor unit, caches, RAS,
    /// frontend and backend queues, and the workload cursor — into a
    /// checkpoint stream.
    ///
    /// The workload itself is not stored: only the number of `next_inst`
    /// reads consumed so far, which [`load_state`](Self::load_state)
    /// replays against a freshly-built deterministic stream. Per-cycle
    /// scratch buffers are excluded (they are dead between cycles).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.begin_section("core");
        self.save_host_state(w);
        self.bpu.save_state(w);
        w.end_section();
    }

    /// Everything [`save_state`](Self::save_state) writes *except* the
    /// BPU: cycle, counters, frontend/backend queues, RAS, caches, and the
    /// workload cursor.
    fn save_host_state(&self, w: &mut StateWriter) {
        w.write_u64(self.cycle);
        self.counters.save_state(w);
        w.write_u64(self.fetch_pc);
        w.write_u64(self.fetch_stall_until);
        w.write_u64(self.expected_pc);
        w.write_bool(self.on_wrong_path);
        w.write_bool(self.stream_done);
        w.write_u64(self.stream_reads);
        w.write_bool(self.lookahead.is_some());
        if let Some(inst) = &self.lookahead {
            inst.save_state(w);
        }
        w.write_u64(self.next_seq);
        w.write_u64(self.committed_before);
        w.write_u64(self.last_commit_cycle);
        w.write_u64(self.fetch_pipeline.len() as u64);
        for f in &self.fetch_pipeline {
            f.save_state(w);
        }
        w.write_u64(self.fetch_buffer.len() as u64);
        for u in &self.fetch_buffer {
            u.save_state(w);
        }
        w.write_u64(self.rob.len() as u64);
        for e in &self.rob {
            e.save_state(w);
        }
        for &(seq, completion) in &self.completion_ring {
            w.write_u64(seq);
            w.write_u64(completion);
        }
        self.tokens.save_state(w, |w, info| info.save_state(w));
        w.write_u64(self.pending_resolves.len() as u64);
        for (token, res, misp, due) in &self.pending_resolves {
            w.write_u64(*token);
            res.save_state(w);
            w.write_u64(encode_misp(*misp));
            w.write_u64(*due);
        }
        self.ras.save_state(w);
        self.mem.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// core that was *freshly built* ([`Core::new`]) from the same design,
    /// configuration, and workload — the stream cursor is repositioned by
    /// replaying the recorded number of reads, which is only correct when
    /// the stream starts at its beginning and is deterministic.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the payload is malformed or shaped for
    /// a different design or configuration.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        r.open_section("core")?;
        self.host_baseline = None;
        self.load_host_state(r)?;
        self.bpu.load_state(r)?;
        r.close_section()
    }

    fn load_host_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.cycle = r.read_u64("core cycle")?;
        self.counters = PerfCounters::load_state(r)?;
        self.fetch_pc = r.read_u64("core fetch pc")?;
        self.fetch_stall_until = r.read_u64("core fetch stall")?;
        self.expected_pc = r.read_u64("core expected pc")?;
        self.on_wrong_path = r.read_bool("core on wrong path")?;
        self.stream_done = r.read_bool("core stream done")?;
        let reads = r.read_u64("core stream reads")?;
        for _ in 0..reads {
            let _ = self.stream.next_inst();
        }
        self.stream_reads = reads;
        self.inst_buf.clear();
        self.inst_pos = 0;
        self.lookahead = if r.read_bool("core has lookahead")? {
            Some(DynInst::load_state(r)?)
        } else {
            None
        };
        self.next_seq = r.read_u64("core next seq")?;
        self.committed_before = r.read_u64("core committed before")?;
        self.last_commit_cycle = r.read_u64("core last commit cycle")?;
        let n_fetch = r.read_u64_capped("core fetch pipeline", 64)?;
        self.fetch_pipeline.clear();
        for _ in 0..n_fetch {
            self.fetch_pipeline.push_back(InflightFetch::load_state(r)?);
        }
        let n_buf = r.read_u64_capped("core fetch buffer", 1 << 16)?;
        self.fetch_buffer.clear();
        for _ in 0..n_buf {
            self.fetch_buffer.push_back(MicroOp::load_state(r)?);
        }
        let n_rob = r.read_u64_capped("core rob", 1 << 20)?;
        self.rob.clear();
        self.issue_skip = 0;
        for _ in 0..n_rob {
            self.rob.push_back(RobEntry::load_state(r)?);
        }
        for slot in &mut self.completion_ring {
            *slot = (
                r.read_u64("core ring seq")?,
                r.read_u64("core ring completion")?,
            );
        }
        self.tokens.load_state(r, TokenInfo::load_state)?;
        let n_pending = r.read_u64_capped("core pending resolves", 1 << 16)?;
        self.pending_resolves.clear();
        for _ in 0..n_pending {
            self.pending_resolves.push((
                r.read_u64("pending token")?,
                SlotResolution::load_state(r)?,
                decode_misp(r)?,
                r.read_u64("pending due cycle")?,
            ));
        }
        self.ras.load_state(r)?;
        self.mem.load_state(r)?;
        Ok(())
    }

    /// Arms a fast-reset baseline at the current state. Host state (queues,
    /// counters, caches — all small relative to predictor tables) is
    /// serialized to an in-memory buffer; the BPU arms dirty-row SRAM
    /// tracking so [`reset_to_baseline`](Self::reset_to_baseline) rewrites
    /// only rows mutated since arming.
    pub fn arm_baseline(&mut self) {
        let mut w = StateWriter::new();
        w.begin_section("core-host");
        self.save_host_state(&mut w);
        w.end_section();
        self.host_baseline = Some(w.finish());
        self.bpu.arm_baseline();
    }

    /// `true` when [`arm_baseline`](Self::arm_baseline) has been called and
    /// no full [`load_state`](Self::load_state) has disarmed it since.
    pub fn baseline_armed(&self) -> bool {
        self.host_baseline.is_some() && self.bpu.baseline_armed()
    }

    /// Restores the core to the armed baseline for a rerun. `fresh_stream`
    /// must be a freshly-built instance of the same deterministic workload;
    /// it is repositioned by replaying the baseline's recorded read count,
    /// exactly as [`load_state`](Self::load_state) does. The baseline stays
    /// armed for the next rerun.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the baseline payload fails to decode
    /// (impossible unless a save/load pair is asymmetric).
    ///
    /// # Panics
    ///
    /// Panics if no baseline is armed.
    pub fn reset_to_baseline(&mut self, fresh_stream: S) -> Result<(), SnapError> {
        let bytes = self
            .host_baseline
            .take()
            .expect("reset_to_baseline without an armed baseline");
        self.stream = fresh_stream;
        let mut r = StateReader::new(&bytes);
        r.open_section("core-host")?;
        self.load_host_state(&mut r)?;
        r.close_section()?;
        self.host_baseline = Some(bytes);
        self.bpu.reset_to_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::IterStream;
    use cobra_core::designs;

    fn straightline(n: u64) -> IterStream<impl Iterator<Item = DynInst>> {
        IterStream::new(0x1000, (0..n).map(|i| DynInst::int(0x1000 + i * 2)))
    }

    #[test]
    fn straightline_ipc_approaches_decode_width() {
        let mut core = Core::new(
            &designs::b2(),
            CoreConfig::boom_4wide(),
            straightline(100_000),
        )
        .expect("composes");
        let r = core.run(80_000, "straightline");
        // No branches, no dependencies: decode width (4) should bind,
        // minus cold-start and icache effects.
        assert!(r.counters.ipc() > 3.2, "IPC {}", r.counters.ipc());
        assert_eq!(r.counters.cond_mispredicts, 0);
        assert_eq!(r.counters.cond_branches, 0);
    }

    #[test]
    fn dependent_chain_limits_ilp() {
        let insts = (0..50_000u64).map(|i| DynInst {
            pc: 0x1000 + i * 2,
            op: Op::Int,
            cfi: None,
            dep: 1, // every instruction depends on the previous one
        });
        let mut core = Core::new(
            &designs::b2(),
            CoreConfig::boom_4wide(),
            IterStream::new(0x1000, insts),
        )
        .expect("composes");
        let r = core.run(40_000, "chain");
        assert!(
            r.counters.ipc() < 1.3,
            "a serial dependence chain cannot exceed ~1 IPC: {}",
            r.counters.ipc()
        );
    }

    #[test]
    fn a_hot_loop_is_learned() {
        // 64 instructions of straight-line code ending in a taken branch
        // back to the top, forever.
        struct LoopProg {
            i: u64,
        }
        impl InstructionStream for LoopProg {
            fn entry_pc(&self) -> u64 {
                0x1000
            }
            fn next_inst(&mut self) -> Option<DynInst> {
                let slot = self.i % 32;
                self.i += 1;
                let pc = 0x1000 + slot * 2;
                Some(if slot == 31 {
                    DynInst {
                        pc,
                        op: Op::Cfi,
                        cfi: Some(CfiOutcome {
                            kind: BranchKind::Conditional,
                            taken: true,
                            target: 0x1000,
                            sfb: false,
                        }),
                        dep: 0,
                    }
                } else {
                    DynInst::int(pc)
                })
            }
            fn inst_at(&self, pc: u64) -> StaticInst {
                if pc == 0x1000 + 31 * 2 {
                    StaticInst {
                        op: Op::Cfi,
                        cfi_kind: Some(BranchKind::Conditional),
                        target: Some(0x1000),
                    }
                } else {
                    StaticInst::filler()
                }
            }
        }
        let mut core = Core::new(
            &designs::tage_l(),
            CoreConfig::boom_4wide(),
            LoopProg { i: 0 },
        )
        .expect("composes");
        let r = core.run(60_000, "hotloop");
        assert!(
            r.counters.branch_accuracy() > 99.0,
            "an always-taken loop branch must be learned: {}",
            r.counters.branch_accuracy()
        );
        // The uBTB redirects at stage 1: near-zero override bubbles in
        // steady state relative to branch count.
        assert!(r.counters.ipc() > 3.0, "IPC {}", r.counters.ipc());
    }

    #[test]
    fn mispredict_penalty_shows_up_in_cycles() {
        // An alternating branch under a 1-bit-unfriendly pattern... use a
        // pseudo-random branch: accuracy ~50% forces heavy penalties.
        struct CoinProg {
            i: u64,
            rng: cobra_sim::SplitMix64,
        }
        impl InstructionStream for CoinProg {
            fn entry_pc(&self) -> u64 {
                0x1000
            }
            fn next_inst(&mut self) -> Option<DynInst> {
                let slot = self.i % 8;
                self.i += 1;
                let pc = 0x1000 + slot * 2;
                Some(if slot == 7 {
                    let taken = self.rng.chance(0.5);
                    DynInst {
                        pc,
                        op: Op::Cfi,
                        cfi: Some(CfiOutcome {
                            kind: BranchKind::Conditional,
                            taken,
                            // Taken target = same fall-through block start:
                            // keeps the instruction stream identical while
                            // the *direction* stays unpredictable.
                            target: 0x1010,
                            sfb: false,
                        }),
                        dep: 0,
                    }
                } else if slot == 0 && self.i > 8 {
                    DynInst::int(0x1010)
                } else {
                    DynInst::int(pc)
                })
            }
            fn inst_at(&self, _pc: u64) -> StaticInst {
                StaticInst::filler()
            }
        }
        // This program is intentionally irregular; just assert the machine
        // makes progress and counts mispredicts.
        let mut core = Core::new(
            &designs::b2(),
            CoreConfig::boom_4wide(),
            CoinProg {
                i: 0,
                rng: cobra_sim::SplitMix64::new(5),
            },
        );
        // The stream's PCs are not self-consistent (slot 0 moves), so the
        // core may discard drifted packets; it must still terminate.
        if let Ok(core) = core.as_mut() {
            let r = core.run(5_000, "coin");
            assert!(r.counters.committed_insts > 0);
        }
    }

    #[test]
    fn icache_misses_stall_fetch() {
        // Jump between far-apart code blocks larger than the L1I.
        struct BigCode {
            i: u64,
        }
        impl InstructionStream for BigCode {
            fn entry_pc(&self) -> u64 {
                0x1_0000
            }
            fn next_inst(&mut self) -> Option<DynInst> {
                let block = (self.i / 8) % 1024; // 1024 blocks x 64 B stride
                let slot = self.i % 8;
                self.i += 1;
                let pc = 0x1_0000 + block * 4096 + slot * 2;
                Some(if slot == 7 {
                    let next = 0x1_0000 + (((self.i / 8) % 1024) * 4096);
                    DynInst {
                        pc,
                        op: Op::Cfi,
                        cfi: Some(CfiOutcome {
                            kind: BranchKind::Jump,
                            taken: true,
                            target: next,
                            sfb: false,
                        }),
                        dep: 0,
                    }
                } else {
                    DynInst::int(pc)
                })
            }
            fn inst_at(&self, pc: u64) -> StaticInst {
                if (pc - 0x1_0000) % 4096 == 14 {
                    StaticInst {
                        op: Op::Cfi,
                        cfi_kind: Some(BranchKind::Jump),
                        target: None,
                    }
                } else {
                    StaticInst::filler()
                }
            }
        }
        let mut core = Core::new(&designs::b2(), CoreConfig::boom_4wide(), BigCode { i: 0 })
            .expect("composes");
        let r = core.run(30_000, "bigcode");
        assert!(
            r.counters.icache_stall_cycles > 100,
            "4 MB of code must miss a 32 KB L1I: {} stall cycles",
            r.counters.icache_stall_cycles
        );
    }
}

#[cfg(test)]
mod frontend_tests {
    use super::*;
    use crate::program::{CfiOutcome, DynInst, Op, StaticInst};
    use cobra_core::designs;

    /// A hot always-taken loop whose branch redirects every iteration.
    struct TightLoop {
        i: u64,
        body: u64,
    }
    impl InstructionStream for TightLoop {
        fn entry_pc(&self) -> u64 {
            0x2000
        }
        fn next_inst(&mut self) -> Option<DynInst> {
            let slot = self.i % self.body;
            self.i += 1;
            let pc = 0x2000 + slot * 2;
            Some(if slot == self.body - 1 {
                DynInst {
                    pc,
                    op: Op::Cfi,
                    cfi: Some(CfiOutcome {
                        kind: BranchKind::Conditional,
                        taken: true,
                        target: 0x2000,
                        sfb: false,
                    }),
                    dep: 0,
                }
            } else {
                DynInst::int(pc)
            })
        }
        fn inst_at(&self, pc: u64) -> StaticInst {
            if pc == 0x2000 + (self.body - 1) * 2 {
                StaticInst {
                    op: Op::Cfi,
                    cfi_kind: Some(BranchKind::Conditional),
                    target: Some(0x2000),
                }
            } else {
                StaticInst::filler()
            }
        }
    }

    #[test]
    fn ubtb_cuts_override_redirects_on_hot_taken_branches() {
        // TAGE-L's 1-cycle uBTB steers taken branches at Fetch-1 with no
        // squash; B2's earliest taken redirect is the 2-cycle BTB, which
        // overrides the fall-through guess every iteration.
        let run = |design| {
            let mut core = Core::new(
                &design,
                CoreConfig::boom_4wide(),
                TightLoop { i: 0, body: 12 },
            )
            .expect("composes");
            let r = core.run(30_000, "tightloop");
            (r.counters.override_redirects, r.counters.cond_branches)
        };
        let (ubtb_overrides, branches) = run(designs::tage_l());
        let (b2_overrides, _) = run(designs::b2());
        assert!(branches > 1000);
        assert!(
            ubtb_overrides * 3 < b2_overrides,
            "uBTB steering must eliminate most override bubbles: {ubtb_overrides} vs {b2_overrides}"
        );
    }

    #[test]
    fn taken_loop_throughput_reflects_redirect_cost() {
        // A 6-instruction loop body: with the uBTB the loop sustains
        // decode-width IPC; without it every iteration pays an override
        // bubble that the fetch buffer cannot hide.
        let ipc = |design| {
            let mut core = Core::new(
                &design,
                CoreConfig::boom_4wide(),
                TightLoop { i: 0, body: 6 },
            )
            .expect("composes");
            core.run(30_000, "tightloop").counters.ipc()
        };
        let with_ubtb = ipc(designs::tage_l());
        let without = ipc(designs::b2());
        assert!(
            with_ubtb > without,
            "uBTB steering must win on a tight taken loop: {with_ubtb} vs {without}"
        );
    }
}
