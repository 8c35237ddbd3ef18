//! The complete branch-predictor unit: pipeline + management structures.
//!
//! [`BranchPredictorUnit`] is what a host core instantiates as "a drop-in
//! replacement for the host processor's existing branch prediction and
//! fetch redirection logic" (paper Section IV-C). It owns:
//!
//! * the compiled [`PredictorPipeline`];
//! * the generated [`HistoryFile`] (entries allocated at query, resolved by
//!   the backend, dequeued at commit);
//! * the [`GlobalHistoryProvider`] and [`LocalHistoryProvider`], updated
//!   speculatively and repaired via snapshots;
//! * the update/repair state machine: on a misprediction it squashes
//!   younger history-file entries, walking them to generate `repair`
//!   events that restore loop-predictor and local-history state, then
//!   issues the `mispredict` fast update and rewinds the global history.
//!
//! ## Protocol with the host frontend
//!
//! 1. [`query`](BranchPredictorUnit::query) at Fetch-0 allocates an entry
//!    and runs all sub-components.
//! 2. The frontend steers fetch with the stage-1 bundle and calls
//!    [`speculate`](BranchPredictorUnit::speculate); when a later stage
//!    changes the prediction it calls
//!    [`revise`](BranchPredictorUnit::revise), squashing younger fetches on
//!    a PC change (and, in [`GhistRepairMode::ReplayFetch`], on any
//!    history change — the Section VI-B experiment).
//! 3. When the packet leaves the fetch pipeline the frontend calls
//!    [`accept`](BranchPredictorUnit::accept) with the predecode-corrected
//!    bundle; `fire` events are broadcast and local history is
//!    speculatively updated.
//! 4. The backend reports executed branches via
//!    [`resolve`](BranchPredictorUnit::resolve); a misprediction triggers
//!    the repair walk and returns the redirect target.
//! 5. The core retires packets in order with
//!    [`commit_front`](BranchPredictorUnit::commit_front), which issues
//!    commit-time `update` events.

use crate::composer::history_file::{pack_bits, EntryPhase, HistoryFile, HistoryFileEntry};
use crate::composer::pipeline::PredictorPipeline;
use crate::composer::providers::{
    GlobalHistoryProvider, LocalHistoryProvider, PathHistoryProvider,
};
use crate::composer::registry::Design;
use crate::error::ComposeError;
use crate::iface::{HistoryView, SlotResolution, UpdateEvent};
use crate::obs::trace::{TraceEvent, TraceEventKind, TraceSink};
use crate::obs::{AttributionReport, DecisionField, PcBlame, StatsSink};
use crate::types::{BranchKind, Meta, PredictionBundle, StorageReport, SLOT_BYTES};
use cobra_sim::{
    HistoryRegister, HistorySnapshot, SnapError, Snapshot, StateReader, StateWriter, TokenSlab,
};

/// Identifies an in-flight fetch packet (its history-file token).
pub type PacketId = u64;

/// How the global-history provider treats a revision that changes the
/// packet's history contribution without changing the fetch PC
/// (Section VI-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GhistRepairMode {
    /// The paper's original design: the history register is repaired, but
    /// predictions already in flight — formed with the misspeculated
    /// history — are not replayed.
    SnapshotOnly,
    /// The paper's improved design: repairing the history forces a replay
    /// of the younger in-flight fetches with the corrected history,
    /// trading fetch bubbles for prediction accuracy (+15 % mean IPC in
    /// the paper).
    #[default]
    ReplayFetch,
}

/// Configuration of the generated management structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpuConfig {
    /// Fetch-packet width in prediction slots.
    pub fetch_width: u8,
    /// History-file capacity (in-flight fetch packets).
    pub history_file_entries: usize,
    /// Global-history repair mode.
    pub repair_mode: GhistRepairMode,
    /// History-file entries the repair state machine walks per cycle.
    pub repair_width: usize,
}

impl Default for BpuConfig {
    fn default() -> Self {
        Self {
            fetch_width: 8,
            history_file_entries: 40,
            repair_mode: GhistRepairMode::ReplayFetch,
            repair_width: 2,
        }
    }
}

/// Counters the unit maintains about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpuStats {
    /// Fetch packets queried.
    pub queries: u64,
    /// Packets accepted into the history file's backend phase.
    pub accepts: u64,
    /// Packets committed.
    pub commits: u64,
    /// Conditional branches committed.
    pub cond_branches: u64,
    /// Conditional-branch direction mispredictions reported.
    pub mispredicts: u64,
    /// Prediction revisions (late-stage overrides and predecode fixes).
    pub revisions: u64,
    /// History-file entries walked by the repair state machine.
    pub repair_entries: u64,
}

/// A committed packet, returned to the host core for accounting.
#[derive(Debug, Clone)]
pub struct CommittedPacket {
    /// Fetch-packet start address.
    pub pc: u64,
    /// The prediction the packet acted on.
    pub pred: PredictionBundle,
    /// Resolved control-flow instructions.
    pub resolutions: Vec<SlotResolution>,
    /// The slot that mispredicted, if any.
    pub mispredicted_slot: Option<u8>,
}

/// The complete predictor unit generated by the composer.
pub struct BranchPredictorUnit {
    pipeline: PredictorPipeline,
    ghist: GlobalHistoryProvider,
    lhist: LocalHistoryProvider,
    phist: PathHistoryProvider,
    hf: HistoryFile,
    cfg: BpuConfig,
    cycle: u64,
    /// Transient per-packet stage bundles (pipeline registers in hardware).
    /// Keyed by the sequential history-file token, whose live window is
    /// bounded by `cfg.history_file_entries`.
    stage_bundles: TokenSlab<Vec<PredictionBundle>>,
    /// Recycled heap buffers from retired packets, reused by the next
    /// [`query_packet`](Self::query_packet) so the steady-state predict
    /// path performs no allocation. Transient: never serialized.
    stage_pool: Vec<Vec<PredictionBundle>>,
    meta_pool: Vec<Vec<Meta>>,
    snap_pool: Vec<HistorySnapshot>,
    scratch_hist: HistoryRegister,
    stats: BpuStats,
    /// Cycles of repair-walk work queued by the last mispredict.
    pub last_repair_cycles: u64,
    design_name: String,
    obs: StatsSink,
    tracers: Vec<TraceSink>,
    /// Serialized front-end state (everything but the pipeline) captured
    /// by [`arm_baseline`](Self::arm_baseline).
    host_baseline: Option<Vec<u8>>,
}

impl BranchPredictorUnit {
    /// Compiles `design` and generates the management structures.
    ///
    /// # Errors
    ///
    /// Propagates [`ComposeError`]s from topology parsing and pipeline
    /// compilation.
    pub fn build(design: &Design, cfg: BpuConfig) -> Result<Self, ComposeError> {
        let pipeline = PredictorPipeline::from_design(design, cfg.fetch_width)?;
        // Static analysis gate: reject designs with error-level findings
        // (latency inversions, shadowed components, over-wide metadata, …)
        // with structured diagnostics instead of building a pipeline whose
        // composition semantics are silently broken.
        crate::analysis::gate_design(design, cfg.fetch_width)?;
        // Plan-soundness verifier (opt-in via COBRA_VERIFY_PLAN; CI sets
        // it unconditionally): statically cross-check the lowered
        // ExecutionPlan against the elaborated design. Errors reject the
        // build; warnings (e.g. the Custom lowering fallback, P0401) are
        // reported but do not block.
        if crate::analysis::verify_env_enabled() {
            let model = crate::analysis::DesignModel::build(
                &design.name,
                &design.topology,
                &design.registry,
                cfg.fetch_width,
                design.ghist_bits,
                design.lhist_entries,
            )?;
            let diags = crate::analysis::verify_pipeline(&pipeline, Some(&model));
            let (errors, rest): (Vec<_>, Vec<_>) = diags.into_iter().partition(|d| d.is_error());
            for d in &rest {
                eprintln!("{}: {}", design.name, d.render(&design.topology));
            }
            if !errors.is_empty() {
                return Err(ComposeError::Analysis {
                    diagnostics: errors,
                });
            }
        }
        let lhist_bits = pipeline.local_history_bits();
        if lhist_bits > 64 {
            return Err(ComposeError::LocalHistoryTooWide {
                component: pipeline
                    .widest_local_history_component()
                    .unwrap_or_default(),
                bits: lhist_bits,
            });
        }
        let lhist_entries = if lhist_bits == 0 {
            1
        } else {
            design.lhist_entries.max(1)
        };
        let ghist = GlobalHistoryProvider::new(design.ghist_bits);
        let lhist = LocalHistoryProvider::new(lhist_entries.next_power_of_two(), lhist_bits);
        let hf = HistoryFile::new(
            cfg.history_file_entries,
            design.ghist_bits,
            lhist_bits,
            pipeline.meta_bits(),
        );
        let labels: Vec<String> = pipeline.labels().iter().map(|s| s.to_string()).collect();
        let obs = StatsSink::new(labels.clone());
        let mut tracers = Vec::new();
        if crate::obs::trace::enabled() {
            // Auto-attach the COBRA_TRACE sink. Bare unit-test BPUs get a
            // process-unique anonymous context; harness runs retarget it
            // (lazy open: nothing is written until the first event).
            let ctx = format!(
                "{}-{}",
                crate::obs::trace::sanitize_context(&design.name),
                TraceSink::anon_context()
            );
            if let Some(sink) = TraceSink::from_env(&ctx, labels) {
                tracers.push(sink);
            }
        }
        Ok(Self {
            scratch_hist: HistoryRegister::new(design.ghist_bits.max(1)),
            pipeline,
            ghist,
            lhist,
            phist: PathHistoryProvider::new(16),
            hf,
            cfg,
            cycle: 0,
            stage_bundles: TokenSlab::new(cfg.history_file_entries),
            stage_pool: Vec::new(),
            meta_pool: Vec::new(),
            snap_pool: Vec::new(),
            stats: BpuStats::default(),
            last_repair_cycles: 0,
            design_name: design.name.clone(),
            obs,
            tracers,
            host_baseline: None,
        })
    }

    /// The design name this unit was built from.
    pub fn design_name(&self) -> &str {
        &self.design_name
    }

    /// Pipeline depth (stages until the final component responds).
    pub fn depth(&self) -> u8 {
        self.pipeline.depth()
    }

    /// Fetch width in prediction slots.
    pub fn width(&self) -> u8 {
        self.pipeline.width()
    }

    /// The unit's configuration.
    pub fn config(&self) -> &BpuConfig {
        &self.cfg
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &BpuStats {
        &self.stats
    }

    /// The per-component attribution sink.
    pub fn attribution(&self) -> &StatsSink {
        &self.obs
    }

    /// Snapshot of the per-component attribution counters as a report.
    pub fn attribution_report(&self) -> AttributionReport {
        self.obs.report()
    }

    /// Starts recording per-PC mispredict blame (see
    /// [`StatsSink::enable_pc_blame`]).
    pub fn enable_pc_attribution(&mut self) {
        self.obs.enable_pc_blame();
    }

    /// The per-PC blame map, if enabled.
    pub fn pc_attribution(&self) -> Option<&PcBlame> {
        self.obs.pc_blame()
    }

    /// Attaches an explicit trace sink (in addition to, or instead of,
    /// the `COBRA_TRACE` auto-attached one).
    pub fn attach_tracer(&mut self, sink: TraceSink) {
        self.tracers.push(sink);
    }

    /// Re-resolves any `COBRA_TRACE` auto-attached sink's file name for
    /// `context` (e.g. a runner job id). Only effective before the first
    /// traced event — sinks open their file lazily.
    pub fn retarget_env_tracer(&mut self, context: &str) {
        for t in &mut self.tracers {
            if t.from_env {
                t.retarget(context);
            }
        }
    }

    /// Flushes attached trace sinks to disk.
    pub fn flush_tracers(&mut self) {
        for t in &mut self.tracers {
            t.flush();
        }
    }

    #[inline]
    fn trace(
        &mut self,
        kind: TraceEventKind,
        pc: u64,
        comp: Option<usize>,
        slot: Option<usize>,
        meta: Option<u64>,
    ) {
        if self.tracers.is_empty() {
            return;
        }
        let e = TraceEvent {
            kind,
            cycle: self.cycle,
            pc: Some(pc),
            comp,
            slot,
            meta,
        };
        for t in &mut self.tracers {
            t.record(&e);
        }
    }

    /// Current cycle (advanced by [`tick`](Self::tick)).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the unit's cycle counter (SRAM port accounting epoch).
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// `true` when the history file can take another packet.
    pub fn can_query(&self) -> bool {
        !self.hf.is_full()
    }

    /// Queries the predictor for a full-width packet at `pc`; see
    /// [`query_packet`](Self::query_packet).
    pub fn query(&mut self, pc: u64) -> Option<PacketId> {
        self.query_packet(pc, self.width())
    }

    /// Queries the predictor for the `width`-slot packet at `pc`,
    /// allocating a history-file entry. Returns `None` when the history
    /// file is full (fetch must stall).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the configured fetch width.
    pub fn query_packet(&mut self, pc: u64, width: u8) -> Option<PacketId> {
        if self.hf.is_full() {
            return None;
        }
        let snapshot = match self.snap_pool.pop() {
            Some(mut s) => {
                self.ghist.snapshot_into(&mut s);
                s
            }
            None => self.ghist.snapshot(),
        };
        let lhist_query = self.lhist.read(self.cycle, pc);
        let phist_query = self.phist.current();
        let hist = HistoryView {
            ghist: self.ghist.current(),
            lhist: lhist_query,
            phist: phist_query,
        };
        let mut pp = crate::composer::pipeline::PacketPrediction {
            stages: self.stage_pool.pop().unwrap_or_default(),
            metas: self.meta_pool.pop().unwrap_or_default(),
            attr: crate::obs::PacketAttribution::EMPTY,
        };
        self.pipeline
            .predict_packet_into(self.cycle, pc, width, &hist, &mut pp);
        let crate::composer::pipeline::PacketPrediction {
            stages,
            metas,
            attr,
        } = pp;
        let final_bundle = *stages.last().expect("depth >= 1");
        self.obs.note_query(&attr, &final_bundle);
        let decision = attr.decision(&final_bundle);
        let provider = decision.and_then(|(s, f)| attr.provider(s, f));
        let provider_meta = provider.map(|p| metas[p].0);
        let entry = HistoryFileEntry {
            pc,
            phase: EntryPhase::Fetching,
            ghist: snapshot,
            lhist_query,
            lhist_old: 0,
            phist: phist_query,
            metas,
            pred: stages[0],
            spec_bits: (0, 0),
            resolutions: Vec::new(),
            mispredicted_slot: None,
            truncated_at: None,
            attr,
        };
        let token = match self.hf.allocate(entry) {
            Ok(t) => t,
            Err(_) => unreachable!("fullness checked above"),
        };
        self.obs.note_hf_occupancy(self.hf.len());
        self.stage_bundles.insert(token, stages);
        self.stats.queries += 1;
        self.trace(
            TraceEventKind::Predict,
            pc,
            provider,
            decision.map(|(s, _)| s),
            provider_meta,
        );
        Some(token)
    }

    /// The final prediction visible at Fetch-`stage` for an in-flight
    /// packet (`1 ≤ stage ≤ depth`). `None` once the packet has been
    /// accepted or squashed.
    pub fn prediction(&self, id: PacketId, stage: u8) -> Option<&PredictionBundle> {
        assert!(
            (1..=self.depth()).contains(&stage),
            "stage out of range 1..=depth"
        );
        self.stage_bundles.get(id).map(|v| &v[stage as usize - 1])
    }

    /// The frontend commits to steering fetch with packet `id`'s
    /// stage-`stage` bundle: its history bits enter the speculative global
    /// history.
    pub fn speculate(&mut self, id: PacketId, stage: u8) {
        let Some(bundle) = self.prediction(id, stage).copied() else {
            return;
        };
        let bits = pack_bits(bundle.history_bits());
        self.ghist
            .speculate((0..bits.1).map(|i| (bits.0 >> i) & 1 == 1));
        if let Some(e) = self.hf.get_mut(id) {
            e.spec_bits = bits;
            e.pred = bundle;
        }
    }

    /// Revises packet `id`'s prediction to `bundle` (a later-stage override
    /// or a predecode correction).
    ///
    /// With `squash_younger`, younger in-flight packets are squashed with
    /// repair events (the frontend will refetch them); otherwise their
    /// speculative history contributions are re-stacked on top of the
    /// corrected history while their own (now stale) predictions stand —
    /// the paper's original, non-replaying design.
    pub fn revise(&mut self, id: PacketId, bundle: &PredictionBundle, squash_younger: bool) {
        if self.hf.get(id).is_none() {
            return;
        }
        let new_bits = pack_bits(bundle.history_bits());
        self.stats.revisions += 1;
        if squash_younger {
            self.squash_younger_with_repair(id);
        }
        let e = self.hf.get_mut(id).expect("entry is live");
        e.spec_bits = new_bits;
        e.pred = *bundle;
        // Rebuild the speculative history: this packet's snapshot, its
        // corrected bits, then surviving younger packets' contributions.
        let e = self.hf.get(id).expect("entry is live");
        self.ghist.rewind_to(
            &e.ghist,
            (0..new_bits.1).map(|i| (new_bits.0 >> i) & 1 == 1),
        );
        self.obs.note_ghist_rewind();
        for t in self.hf.younger_range(id) {
            if let Some(y) = self.hf.get(t) {
                self.ghist.speculate(y.spec_bit_iter());
            }
        }
    }

    /// Updates packet `id`'s recorded prediction *without* touching the
    /// speculative global history — the paper's original (Section VI-B)
    /// non-replaying design: "misspeculated global history updates were
    /// repaired [only on mispredictions], but predictions formed from a
    /// misspeculated history were not replayed". The history bits this
    /// packet pushed stay as speculated, leaving the register skewed until
    /// the next misprediction rewinds it.
    pub fn revise_quiet(&mut self, id: PacketId, bundle: &PredictionBundle) {
        if let Some(e) = self.hf.get_mut(id) {
            e.pred = *bundle;
            self.stats.revisions += 1;
        }
    }

    /// Squashes packet `id` and everything younger (e.g. the frontend
    /// abandons a speculative fetch path entirely). The global history
    /// rewinds to `id`'s fetch-time snapshot.
    pub fn squash_from(&mut self, id: PacketId) {
        let Some(e) = self.hf.get(id) else { return };
        let snapshot = e.ghist.clone();
        self.squash_younger_with_repair(id);
        self.repair_one(id);
        // Remove `id` itself: discard_after keeps it, so pop via truncation.
        if id == 0 {
            // Token 0 cannot use discard_after(id-1); clear instead.
            self.hf.discard_all();
            self.stage_bundles.clear();
        } else {
            let removed = self.hf.discard_after(id - 1);
            debug_assert!(removed <= 1);
            self.recycle_stage_bundles(id);
        }
        self.ghist.rewind_to(&snapshot, []);
        self.obs.note_ghist_rewind();
    }

    /// Removes packet `id`'s stage bundles, returning the buffer to the
    /// pool for the next query.
    fn recycle_stage_bundles(&mut self, id: PacketId) {
        if let Some(mut v) = self.stage_bundles.remove(id) {
            v.clear();
            self.stage_pool.push(v);
        }
    }

    fn repair_one(&mut self, id: PacketId) {
        let Some(e) = self.hf.get(id) else { return };
        let pc = e.pc;
        self.scratch_hist.restore(&e.ghist);
        let hist = HistoryView {
            ghist: &self.scratch_hist,
            lhist: e.lhist_query,
            phist: e.phist,
        };
        self.pipeline.repair(e.pc, &hist, &e.metas, &e.pred);
        self.obs.note_repair();
        if e.phase == EntryPhase::Accepted {
            self.lhist.repair(e.pc, e.lhist_old, []);
            self.obs.note_lhist_repair();
        }
        self.stats.repair_entries += 1;
        self.trace(TraceEventKind::Repair, pc, None, None, None);
    }

    /// Walks and squashes every entry younger than `keep` (youngest first,
    /// so snapshot-style restores converge on the oldest pre-state), and
    /// records the repair-FSM busy time.
    fn squash_younger_with_repair(&mut self, keep: PacketId) {
        let victims = self.hf.younger_range(keep);
        let count = victims.end.saturating_sub(victims.start);
        for t in victims.rev() {
            self.repair_one(t);
            self.recycle_stage_bundles(t);
        }
        let removed = self.hf.discard_after(keep);
        debug_assert_eq!(removed as u64, count);
        self.last_repair_cycles = count.div_ceil(self.cfg.repair_width.max(1) as u64);
    }

    /// The packet leaves the fetch pipeline with its final,
    /// predecode-corrected `bundle`: `fire` events are broadcast, local
    /// history is speculatively updated, and the entry waits for backend
    /// resolution.
    ///
    /// The caller must have already [`revise`](Self::revise)d the packet if
    /// `bundle`'s history contribution differs from what was speculated.
    pub fn accept(&mut self, id: PacketId, bundle: PredictionBundle) {
        let Some(e) = self.hf.get_mut(id) else { return };
        debug_assert_eq!(e.phase, EntryPhase::Fetching, "double accept");
        if crate::sanitize::enabled() && e.phase != EntryPhase::Fetching {
            crate::sanitize::violation(&format!(
                "packet {id} accepted twice (already in the {:?} phase)",
                e.phase
            ));
        }
        e.phase = EntryPhase::Accepted;
        e.pred = bundle;
        let pc = e.pc;
        e.lhist_old = self.lhist.speculate(pc, bundle.history_bits());
        // Path history advances with the packet's taken redirection.
        if let Some((_, target)) = bundle.redirect() {
            self.phist.speculate(target);
        }
        let e = self.hf.get(id).expect("entry is live");
        self.scratch_hist.restore(&e.ghist);
        let hist = HistoryView {
            ghist: &self.scratch_hist,
            lhist: e.lhist_query,
            phist: e.phist,
        };
        self.pipeline.fire(pc, &hist, &e.metas, &bundle);
        self.obs.note_fire();
        self.recycle_stage_bundles(id);
        self.stats.accepts += 1;
        self.trace(TraceEventKind::Fire, pc, None, None, None);
    }

    /// The backend resolved one control-flow instruction of packet `id`.
    ///
    /// With `mispredicted`, the repair state machine runs: younger entries
    /// are squashed with repair events, the global and local histories are
    /// rewound to the corrected state, the `mispredict` fast update is
    /// broadcast, and the corrected fetch target is returned.
    #[allow(clippy::question_mark)] // symmetric with the other early outs
    pub fn resolve(
        &mut self,
        id: PacketId,
        res: SlotResolution,
        mispredicted: bool,
    ) -> Option<u64> {
        let Some(e) = self.hf.get_mut(id) else {
            return None;
        };
        if let Some(t) = e.truncated_at {
            if res.slot > t {
                return None; // stale wrong-path resolution
            }
        }
        e.record_resolution(res);
        if res.kind == BranchKind::Conditional {
            // counted at commit; nothing here
        }
        if !mispredicted {
            return None;
        }
        self.stats.mispredicts += 1;
        let e = self.hf.get_mut(id).expect("live");
        e.mispredicted_slot = Some(match e.mispredicted_slot {
            Some(s) => s.min(res.slot),
            None => res.slot,
        });
        e.truncated_at = Some(res.slot);
        e.resolutions.retain(|r| r.slot <= res.slot);

        // Charge the mispredict to the component whose prediction the
        // packet actually followed: a wrong direction blames the direction
        // provider, anything else (wrong/unknown target, wrong kind)
        // blames the target provider. An unattributed field falls to the
        // static pseudo-component — the packet followed the not-taken
        // fall-through no component predicted.
        let slot = res.slot as usize;
        let (predicted_taken, dir_provider, tgt_provider) = if slot < e.pred.width() as usize {
            let sp = e.pred.slot(slot);
            let pt = match sp.kind {
                Some(BranchKind::Conditional) => sp.taken == Some(true),
                Some(_) => true,
                None => false,
            };
            (
                pt,
                e.attr.provider(slot, DecisionField::Taken),
                e.attr.provider(slot, DecisionField::Target),
            )
        } else {
            (false, None, None)
        };
        let direction_miss = res.kind == BranchKind::Conditional && res.taken != predicted_taken;
        let blamed = if direction_miss {
            dir_provider
        } else {
            tgt_provider
        };
        let blamed_meta = blamed.map(|p| e.metas[p].0);
        let branch_pc = e.pc + res.slot as u64 * SLOT_BYTES;
        self.obs.note_blame(blamed, !direction_miss, branch_pc);

        // Squash younger entries with repair (youngest first).
        self.squash_younger_with_repair(id);

        // Rewind the global history to this packet's fetch state plus the
        // corrected outcomes up to and including the mispredicted slot.
        let e = self.hf.get(id).expect("live");
        let corrected = corrected_history_bits(e, res.slot);
        let (pc, lhist_q, lhist_old, phist_q) = (e.pc, e.lhist_query, e.lhist_old, e.phist);
        let accepted = e.phase == EntryPhase::Accepted;
        self.ghist.rewind_to(&e.ghist, corrected.iter().copied());
        self.obs.note_ghist_rewind();
        // Rewind the path history to this packet's fetch state and push the
        // resolved redirection.
        self.phist.restore(phist_q);
        if res.taken {
            self.phist.speculate(res.target);
        }
        if let Some(e) = self.hf.get_mut(id) {
            e.spec_bits = pack_bits(corrected.iter().copied());
        }
        if accepted {
            self.lhist.repair(pc, lhist_old, corrected.iter().copied());
            self.obs.note_lhist_repair();
        }

        // Fast mispredict update to the components.
        let e = self.hf.get(id).expect("live");
        self.scratch_hist.restore(&e.ghist);
        let hist = HistoryView {
            ghist: &self.scratch_hist,
            lhist: lhist_q,
            phist: phist_q,
        };
        let ev = UpdateEvent {
            pc,
            width: e.pred.width(),
            hist,
            meta: crate::types::Meta::ZERO,
            pred: &e.pred,
            resolutions: &e.resolutions,
            mispredicted_slot: Some(res.slot),
        };
        self.pipeline.mispredict(&ev, &e.metas);
        self.obs.note_mispredict_event();
        self.trace(
            TraceEventKind::Mispredict,
            branch_pc,
            blamed,
            Some(res.slot as usize),
            blamed_meta,
        );

        Some(if res.taken {
            res.target
        } else {
            pc + res.slot as u64 * SLOT_BYTES + SLOT_BYTES
        })
    }

    /// Retires the oldest packet: commit-time `update` events are issued
    /// and the entry is dequeued. Returns `None` when the front entry is
    /// still fetching (nothing to commit).
    pub fn commit_front(&mut self) -> Option<CommittedPacket> {
        match self.hf.front() {
            Some((_, e)) if e.phase == EntryPhase::Accepted => {}
            _ => return None,
        }
        let (_, e) = self.hf.pop_front().expect("checked front exists");
        self.scratch_hist.restore(&e.ghist);
        let hist = HistoryView {
            ghist: &self.scratch_hist,
            lhist: e.lhist_query,
            phist: e.phist,
        };
        let ev = UpdateEvent {
            pc: e.pc,
            width: e.pred.width(),
            hist,
            meta: crate::types::Meta::ZERO,
            pred: &e.pred,
            resolutions: &e.resolutions,
            mispredicted_slot: e.mispredicted_slot,
        };
        self.pipeline.update(&ev, &e.metas);
        self.obs.note_update();
        self.stats.commits += 1;
        self.stats.cond_branches += e
            .resolutions
            .iter()
            .filter(|r| r.kind == BranchKind::Conditional)
            .count() as u64;
        self.trace(
            TraceEventKind::Update,
            e.pc,
            None,
            e.mispredicted_slot.map(|s| s as usize),
            None,
        );
        // Recycle the retired entry's heap buffers for the next query.
        let HistoryFileEntry {
            pc,
            pred,
            resolutions,
            mispredicted_slot,
            mut metas,
            ghist,
            ..
        } = e;
        metas.clear();
        self.meta_pool.push(metas);
        self.snap_pool.push(ghist);
        Some(CommittedPacket {
            pc,
            pred,
            resolutions,
            mispredicted_slot,
        })
    }

    /// Full pipeline flush (exception / machine redirect): every in-flight
    /// entry is repaired and dropped and the speculative history rewinds to
    /// the oldest entry's fetch state.
    pub fn flush(&mut self) {
        if let Some((front, _)) = self.hf.front() {
            let front_entry = self.hf.get(front).expect("front is live");
            let snapshot = front_entry.ghist.clone();
            let phist_q = front_entry.phist;
            for t in self.hf.live_range().rev() {
                self.repair_one(t);
            }
            self.hf.discard_all();
            self.stage_bundles.clear();
            self.ghist.rewind_to(&snapshot, []);
            self.obs.note_ghist_rewind();
            self.phist.restore(phist_q);
        }
    }

    /// Per-component storage reports (Fig 8's sub-component bars).
    pub fn storage_by_component(&self) -> Vec<(String, StorageReport)> {
        self.pipeline.storage_by_component()
    }

    /// Per-component SRAM access counts for the energy model.
    pub fn accesses_by_component(&self) -> Vec<(String, Vec<crate::types::AccessReport>)> {
        self.pipeline.accesses_by_component()
    }

    /// Total SRAM port-budget violations across all components — zero for
    /// a design whose memories map to their declared macros.
    pub fn port_violations(&self) -> usize {
        self.pipeline.port_violations()
    }

    /// Per-component SRAM touched-row utilization, in the pipeline's
    /// dataflow (label) order: `(rows written since construction or
    /// restore, total rows)` summed over each component's memories.
    /// Flop-only components report `(0, 0)`.
    pub fn sram_utilization(&self) -> Vec<(u64, u64)> {
        self.accesses_by_component()
            .iter()
            .map(|(_, reports)| {
                reports.iter().fold((0u64, 0u64), |(touched, total), r| {
                    (touched + r.rows_touched, total + r.spec.entries)
                })
            })
            .collect()
    }

    /// Storage of the generated management structures — history file and
    /// history providers (Fig 8's "Meta" bar).
    pub fn meta_storage(&self) -> StorageReport {
        let mut r = self.hf.storage();
        r.merge(&self.ghist.storage());
        r.merge(&self.lhist.storage());
        r.merge(&self.phist.storage());
        r
    }

    /// Total predictor storage (components + management).
    pub fn total_storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        for (_, s) in self.storage_by_component() {
            r.merge(&s);
        }
        r.merge(&self.meta_storage());
        r
    }

    /// The pipeline's stage diagram (Fig 7).
    pub fn describe_pipeline(&self) -> Vec<crate::composer::pipeline::StageDescription> {
        self.pipeline.describe()
    }

    /// Borrow the speculative global history (test/diagnostic use).
    pub fn speculative_ghist(&self) -> &HistoryRegister {
        self.ghist.current()
    }

    /// The current speculative path history (test/diagnostic use).
    pub fn speculative_phist(&self) -> u64 {
        self.phist.current()
    }

    /// Number of live history-file entries.
    pub fn in_flight(&self) -> usize {
        self.hf.len()
    }

    /// Serializes the unit's complete warm state: every component's tables,
    /// the history providers, the history file of in-flight packets, the
    /// transient stage bundles, and the unit's own counters and
    /// attribution sink.
    ///
    /// Configuration (design, topology, widths) is *not* stored — the
    /// `.cbs` container carries it as identity metadata instead, and
    /// [`load_state`](Self::load_state) expects a unit built from the same
    /// design. Transient scratch registers and attached tracers are
    /// excluded: the former are recomputed per packet, the latter are host
    /// plumbing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.begin_section("bpu");
        self.save_front_state(w);
        self.pipeline.save_state(w);
        w.end_section();
    }

    /// Everything [`save_state`](Self::save_state) writes *except* the
    /// pipeline: cycle, counters, history providers, history file, stage
    /// bundles, and the attribution sink.
    fn save_front_state(&self, w: &mut StateWriter) {
        w.write_u64(self.cycle);
        w.write_u64(self.stats.queries);
        w.write_u64(self.stats.accepts);
        w.write_u64(self.stats.commits);
        w.write_u64(self.stats.cond_branches);
        w.write_u64(self.stats.mispredicts);
        w.write_u64(self.stats.revisions);
        w.write_u64(self.stats.repair_entries);
        w.write_u64(self.last_repair_cycles);
        self.ghist.save_state(w);
        self.lhist.save_state(w);
        self.phist.save_state(w);
        self.hf.save_state(w);
        self.stage_bundles.save_state(w, |w, bundles| {
            w.write_u64(bundles.len() as u64);
            for b in bundles {
                b.save_state(w);
            }
        });
        self.obs.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// unit built from the same design.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the payload is malformed or was
    /// written by a pipeline with different node labels or table shapes.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        r.open_section("bpu")?;
        self.host_baseline = None;
        self.load_front_state(r)?;
        self.pipeline.load_state(r)?;
        r.close_section()
    }

    fn load_front_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.cycle = r.read_u64("bpu cycle")?;
        self.stats.queries = r.read_u64("bpu queries")?;
        self.stats.accepts = r.read_u64("bpu accepts")?;
        self.stats.commits = r.read_u64("bpu commits")?;
        self.stats.cond_branches = r.read_u64("bpu cond branches")?;
        self.stats.mispredicts = r.read_u64("bpu mispredicts")?;
        self.stats.revisions = r.read_u64("bpu revisions")?;
        self.stats.repair_entries = r.read_u64("bpu repair entries")?;
        self.last_repair_cycles = r.read_u64("bpu last repair cycles")?;
        self.ghist.load_state(r)?;
        self.lhist.load_state(r)?;
        self.phist.load_state(r)?;
        self.hf.load_state(r)?;
        let depth = crate::composer::pipeline::MAX_DEPTH as u64;
        self.stage_bundles.load_state(r, |r| {
            let n = r.read_u64_capped("stage bundle count", depth)?;
            let mut bundles = Vec::with_capacity(n as usize);
            for _ in 0..n {
                bundles.push(PredictionBundle::load_state(r)?);
            }
            Ok(bundles)
        })?;
        self.obs.load_state(r)?;
        Ok(())
    }

    /// Arms a fast-reset baseline at the current state: front-end state is
    /// serialized to an in-memory buffer (it is small — histories, counters,
    /// in-flight bundles), and every pipeline component arms dirty-row
    /// tracking so [`reset_to_baseline`](Self::reset_to_baseline) touches
    /// only mutated SRAM rows instead of reloading full tables.
    pub fn arm_baseline(&mut self) {
        let mut w = StateWriter::new();
        w.begin_section("bpu-front");
        self.save_front_state(&mut w);
        w.end_section();
        self.host_baseline = Some(w.finish());
        self.pipeline.arm_baseline();
    }

    /// `true` when [`arm_baseline`](Self::arm_baseline) has been called and
    /// no full [`load_state`](Self::load_state) has disarmed it since.
    pub fn baseline_armed(&self) -> bool {
        self.host_baseline.is_some() && self.pipeline.baseline_armed()
    }

    /// Restores the unit to the armed baseline. The baseline stays armed
    /// for the next rerun.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if a fallback payload fails to decode.
    ///
    /// # Panics
    ///
    /// Panics if no baseline is armed.
    pub fn reset_to_baseline(&mut self) -> Result<(), SnapError> {
        let bytes = self
            .host_baseline
            .take()
            .expect("reset_to_baseline without an armed baseline");
        let mut r = StateReader::new(&bytes);
        r.open_section("bpu-front")?;
        self.load_front_state(&mut r)?;
        r.close_section()?;
        self.host_baseline = Some(bytes);
        self.pipeline.reset_to_baseline()
    }

    /// Selects the packet path: `true` (the default) the compiled plan,
    /// `false` the reference interpreter.
    pub fn force_plan(&mut self, enabled: bool) {
        self.pipeline.force_plan(enabled);
    }

    /// Arms or disarms the pipeline's per-node self-profiler (off by
    /// default).
    pub fn force_profiler(&mut self, enabled: bool) {
        self.pipeline.force_profiler(enabled);
    }

    /// The self-profiler's rendered per-node table, if armed and at least
    /// one packet was sampled.
    pub fn profile_report(&self) -> Option<String> {
        self.pipeline.profile_report()
    }
}

impl std::fmt::Debug for BranchPredictorUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchPredictorUnit")
            .field("design", &self.design_name)
            .field("depth", &self.depth())
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats)
            .finish()
    }
}

/// The corrected history contribution of a packet after its slot
/// `mispredicted_slot` resolved: resolved outcomes where known, predicted
/// directions otherwise, for conditional slots up to and including the
/// mispredicted one.
fn corrected_history_bits(e: &HistoryFileEntry, mispredicted_slot: u8) -> Vec<bool> {
    let mut out = Vec::new();
    for i in 0..=mispredicted_slot.min(e.pred.width() - 1) {
        if e.pred.slot(i as usize).kind == Some(BranchKind::Conditional)
            || e.resolutions
                .iter()
                .any(|r| r.slot == i && r.kind == BranchKind::Conditional)
        {
            let bit = e
                .resolutions
                .iter()
                .find(|r| r.slot == i)
                .map(|r| r.taken)
                .or_else(|| e.pred.slot(i as usize).taken)
                .unwrap_or(false);
            out.push(bit);
            if bit && i < mispredicted_slot {
                break; // an older taken branch ends the packet
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs;

    fn build(design: &Design) -> BranchPredictorUnit {
        BranchPredictorUnit::build(
            design,
            BpuConfig {
                fetch_width: 4,
                history_file_entries: 8,
                ..BpuConfig::default()
            },
        )
        .expect("valid design")
    }

    fn cond_res(slot: u8, taken: bool, target: u64) -> SlotResolution {
        SlotResolution {
            slot,
            kind: BranchKind::Conditional,
            taken,
            target,
        }
    }

    #[test]
    fn builds_all_three_paper_designs() {
        for d in [designs::tage_l(), designs::b2(), designs::tournament()] {
            let bpu = build(&d);
            assert_eq!(bpu.depth(), 3, "{}", d.name);
        }
    }

    #[test]
    fn query_accept_resolve_commit_roundtrip() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let id = bpu.query(0x1000).unwrap();
        bpu.speculate(id, 1);
        let final_pred = *bpu.prediction(id, 3).unwrap();
        bpu.accept(id, final_pred);
        bpu.resolve(id, cond_res(0, true, 0x2000), true);
        let committed = bpu.commit_front().expect("accepted entry commits");
        assert_eq!(committed.pc, 0x1000);
        assert_eq!(committed.mispredicted_slot, Some(0));
        assert_eq!(bpu.stats().commits, 1);
        assert_eq!(bpu.stats().mispredicts, 1);
    }

    #[test]
    fn history_file_backpressure() {
        let d = designs::b2();
        let mut bpu = build(&d);
        for i in 0..8 {
            assert!(bpu.query(0x1000 + i * 16).is_some());
        }
        assert!(!bpu.can_query());
        assert!(bpu.query(0x9000).is_none());
    }

    #[test]
    fn mispredict_squashes_younger_and_rewinds_history() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        let pa = *bpu.prediction(a, 3).unwrap();
        bpu.accept(a, pa);
        // Younger speculative packets.
        let b = bpu.query(0x1010).unwrap();
        bpu.speculate(b, 1);
        let c = bpu.query(0x1020).unwrap();
        bpu.speculate(c, 1);
        assert_eq!(bpu.in_flight(), 3);
        let redirect = bpu.resolve(a, cond_res(1, true, 0x4000), true);
        assert_eq!(redirect, Some(0x4000));
        assert_eq!(bpu.in_flight(), 1, "younger packets squashed");
        // The corrected history ends with the resolved taken bit.
        assert!(bpu.speculative_ghist().bit(0));
    }

    #[test]
    fn not_taken_mispredict_redirects_to_fallthrough() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        let pa = *bpu.prediction(a, 3).unwrap();
        bpu.accept(a, pa);
        let redirect = bpu.resolve(a, cond_res(2, false, 0), true);
        assert_eq!(redirect, Some(0x1000 + 2 * 2 + 2));
    }

    #[test]
    fn commit_requires_accept() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let _ = bpu.query(0x1000).unwrap();
        assert!(bpu.commit_front().is_none(), "fetching entry cannot commit");
    }

    #[test]
    fn revise_changes_history_contribution() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1); // cold: no predicted branches, no bits
                             // Predecode discovers a not-taken conditional branch at slot 0.
        let mut corrected = *bpu.prediction(a, 3).unwrap();
        corrected.slot_mut(0).kind = Some(BranchKind::Conditional);
        corrected.slot_mut(0).taken = Some(false);
        bpu.revise(a, &corrected, false);
        let e_bits: Vec<bool> = (0..1).map(|_| bpu.speculative_ghist().bit(0)).collect();
        assert_eq!(e_bits, vec![false]);
        assert_eq!(bpu.stats().revisions, 1);
    }

    #[test]
    fn revise_with_replay_squashes_younger() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        let _b = bpu.query(0x1010).unwrap();
        let _c = bpu.query(0x1020).unwrap();
        let corrected = *bpu.prediction(a, 3).unwrap();
        bpu.revise(a, &corrected, true);
        assert_eq!(bpu.in_flight(), 1);
        assert!(bpu.last_repair_cycles >= 1);
    }

    #[test]
    fn revise_without_replay_keeps_younger() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        let b = bpu.query(0x1010).unwrap();
        bpu.speculate(b, 1);
        let corrected = *bpu.prediction(a, 3).unwrap();
        bpu.revise(a, &corrected, false);
        assert_eq!(bpu.in_flight(), 2, "younger packet survives");
    }

    #[test]
    fn flush_empties_and_restores_history() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let before = bpu.speculative_ghist().clone();
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        // Force some history bits in via a revision.
        let mut pred = *bpu.prediction(a, 3).unwrap();
        pred.slot_mut(0).kind = Some(BranchKind::Conditional);
        pred.slot_mut(0).taken = Some(true);
        bpu.revise(a, &pred, false);
        bpu.flush();
        assert_eq!(bpu.in_flight(), 0);
        assert_eq!(*bpu.speculative_ghist(), before);
    }

    #[test]
    fn stale_wrong_path_resolutions_are_dropped() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        let pa = *bpu.prediction(a, 3).unwrap();
        bpu.accept(a, pa);
        bpu.resolve(a, cond_res(1, true, 0x4000), true);
        // A later (wrong-path) resolution for slot 3 must be ignored.
        bpu.resolve(a, cond_res(3, false, 0), false);
        let committed = bpu.commit_front().unwrap();
        assert!(committed.resolutions.iter().all(|r| r.slot <= 1));
    }

    #[test]
    fn meta_storage_nonzero_and_scales_with_design() {
        let tourney = build(&designs::tournament());
        let b2 = build(&designs::b2());
        // The Tournament design has local histories; its Meta cost must
        // exceed B2's (the paper's Fig 8 shows exactly this).
        assert!(
            tourney.meta_storage().total_bits() > b2.meta_storage().total_bits(),
            "tournament meta {} <= b2 meta {}",
            tourney.meta_storage().total_bits(),
            b2.meta_storage().total_bits()
        );
    }

    #[test]
    fn commit_counts_cond_branches() {
        let d = designs::b2();
        let mut bpu = build(&d);
        let a = bpu.query(0x1000).unwrap();
        bpu.speculate(a, 1);
        let pa = *bpu.prediction(a, 3).unwrap();
        bpu.accept(a, pa);
        bpu.resolve(a, cond_res(0, false, 0), false);
        bpu.resolve(a, cond_res(2, true, 0x8000), false);
        bpu.commit_front().unwrap();
        assert_eq!(bpu.stats().cond_branches, 2);
    }

    fn drive(bpu: &mut BranchPredictorUnit, pcs: std::ops::Range<u64>) {
        for i in pcs {
            let pc = 0x1000 + i * 0x40;
            let id = bpu.query(pc).unwrap();
            bpu.speculate(id, 1);
            let pred = *bpu.prediction(id, 3).unwrap();
            bpu.accept(id, pred);
            bpu.resolve(id, cond_res(0, i % 3 == 0, pc + 0x200), true);
            bpu.commit_front().unwrap();
            bpu.tick();
        }
    }

    fn snapshot(bpu: &BranchPredictorUnit) -> Vec<u8> {
        let mut w = StateWriter::new();
        bpu.save_state(&mut w);
        w.finish()
    }

    #[test]
    fn baseline_reset_restores_full_unit_state() {
        for d in [designs::tage_l(), designs::b2(), designs::tournament()] {
            let mut bpu = build(&d);
            drive(&mut bpu, 0..40);
            let before = snapshot(&bpu);
            bpu.arm_baseline();
            assert!(bpu.baseline_armed());
            drive(&mut bpu, 40..90);
            assert_ne!(snapshot(&bpu), before, "driving must change state");
            bpu.reset_to_baseline().unwrap();
            assert_eq!(
                snapshot(&bpu),
                before,
                "{}: dirty reset must be byte-identical to the armed state",
                d.name
            );
            // The baseline stays armed: a second rerun resets again.
            drive(&mut bpu, 90..120);
            bpu.reset_to_baseline().unwrap();
            assert_eq!(snapshot(&bpu), before);
        }
    }

    #[test]
    fn full_restore_disarms_baseline() {
        let d = designs::b2();
        let mut bpu = build(&d);
        bpu.arm_baseline();
        let bytes = snapshot(&bpu);
        let mut r = StateReader::new(&bytes);
        bpu.load_state(&mut r).unwrap();
        assert!(!bpu.baseline_armed());
    }
}
