//! Pipeline observability: per-component attribution and event tracing.
//!
//! The framework's aggregate counters (queries, mispredicts, commits) say
//! *that* a composed predictor mispredicted, never *which sub-component*
//! to blame — yet COBRA's whole thesis is that predictors are
//! compositions. This module closes that gap with two always-available
//! layers:
//!
//! * **Attribution counters** ([`StatsSink`]): per-component, per-event
//!   counters — queries, fires, provided-the-final-prediction,
//!   overridden-by-another-component, mispredict blame split by direction
//!   and target, repair and update traffic — plus management-structure
//!   gauges (history-file occupancy high-water mark, global-history
//!   snapshot repairs, local-history repairs). Blame is charged to the
//!   component whose value the packet's followed prediction actually
//!   carried, computed by a value-flow fold over the composed pipeline
//!   ([`PacketAttribution`]).
//! * **Event tracing** ([`trace`]): an opt-in structured per-event stream
//!   (JSONL or Chrome `trace_event`), zero-cost when off.
//! * **Interval telemetry** ([`interval`]): time-resolved per-component
//!   deltas, occupancy gauges, and phase signatures every `n` committed
//!   instructions (`COBRA_INTERVAL`), plus the plan-node self-profiler
//!   (`COBRA_PROFILE`) — both off by default and stdout-invisible when on.
//!
//! Attribution is *operational*: at the final pipeline stage, each
//! predicted field of each slot is traced back through the composition to
//! the deepest component whose own response carries the winning value.
//! Ties (two components proposing the same value) credit the component
//! closest to the base of the topology — the first to have established
//! the value. A field no component proposed (an arbiter synthesizing a
//! merge) is credited to the composing node itself.

pub mod interval;
pub mod trace;

use crate::types::{BranchKind, PredictionBundle, SlotPrediction, MAX_FETCH_WIDTH};
use cobra_sim::{SnapError, StateReader, StateWriter};
use std::collections::BTreeMap;

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes. The one escaper behind every JSON writer in the workspace:
/// trace events, analyzer reports, lint SARIF and the bench harness's
/// records.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sentinel provider index: no component provided the field.
pub const NO_PROVIDER: u8 = u8::MAX;

/// Components beyond this count do not get proposal masks (provider
/// attribution still works); real topologies have ≤ 8 nodes.
pub const MAX_TRACKED_COMPONENTS: usize = 16;

/// Label of the pseudo-component charged with mispredicts no component's
/// prediction caused (static not-taken fall-through, unpredicted slots).
pub const STATIC_LABEL: &str = "(static)";

/// Which predicted field of a slot steered the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionField {
    /// The slot's branch kind.
    Kind,
    /// The conditional direction.
    Taken,
    /// The redirect target.
    Target,
}

/// Per-packet provenance: which pipeline node provided each predicted
/// field of each slot in the final composed bundle, plus per-node
/// proposal masks for override accounting.
///
/// Provider indices are pipeline node indices in dataflow order
/// ([`NO_PROVIDER`] when the field was not predicted). Proposal masks
/// have bit `s` set when the node's *own* raw response carried the field
/// for slot `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketAttribution {
    /// Provider of each slot's `kind` field.
    pub kind_provider: [u8; MAX_FETCH_WIDTH],
    /// Provider of each slot's `taken` field.
    pub taken_provider: [u8; MAX_FETCH_WIDTH],
    /// Provider of each slot's `target` field.
    pub target_provider: [u8; MAX_FETCH_WIDTH],
    /// Per-node slot mask of own direction proposals.
    pub proposed_taken: [u8; MAX_TRACKED_COMPONENTS],
    /// Per-node slot mask of own target proposals.
    pub proposed_target: [u8; MAX_TRACKED_COMPONENTS],
}

impl PacketAttribution {
    /// No provenance: every field unattributed, no proposals.
    pub const EMPTY: Self = Self {
        kind_provider: [NO_PROVIDER; MAX_FETCH_WIDTH],
        taken_provider: [NO_PROVIDER; MAX_FETCH_WIDTH],
        target_provider: [NO_PROVIDER; MAX_FETCH_WIDTH],
        proposed_taken: [0; MAX_TRACKED_COMPONENTS],
        proposed_target: [0; MAX_TRACKED_COMPONENTS],
    };

    /// The provider of `field` at `slot`, or `None` for [`NO_PROVIDER`].
    pub fn provider(&self, slot: usize, field: DecisionField) -> Option<usize> {
        let p = match field {
            DecisionField::Kind => self.kind_provider[slot],
            DecisionField::Taken => self.taken_provider[slot],
            DecisionField::Target => self.target_provider[slot],
        };
        (p != NO_PROVIDER).then_some(p as usize)
    }

    /// The packet's steering decision: the slot and field that determined
    /// where fetch goes next, with its provider. `None` for an empty
    /// bundle (static fall-through).
    ///
    /// A predicted redirect is decided by its direction (conditional) or
    /// its target (unconditional); a no-redirect bundle is decided by the
    /// first slot carrying any prediction.
    pub fn decision(&self, bundle: &PredictionBundle) -> Option<(usize, DecisionField)> {
        if let Some((slot, _)) = bundle.redirect() {
            let field = if bundle.slot(slot).kind == Some(BranchKind::Conditional) {
                DecisionField::Taken
            } else {
                DecisionField::Target
            };
            return Some((slot, self.best_field(bundle.slot(slot), slot, field)));
        }
        (0..bundle.width() as usize).find_map(|s| {
            let sp = bundle.slot(s);
            if sp.is_empty() {
                return None;
            }
            let field = if sp.taken.is_some() {
                DecisionField::Taken
            } else if sp.kind.is_some() {
                DecisionField::Kind
            } else {
                DecisionField::Target
            };
            Some((s, self.best_field(sp, s, field)))
        })
    }

    /// Falls back from the preferred decision field to any attributed
    /// field the slot actually carries.
    fn best_field(
        &self,
        sp: &SlotPrediction,
        slot: usize,
        preferred: DecisionField,
    ) -> DecisionField {
        let carried = |f| match f {
            DecisionField::Kind => sp.kind.is_some(),
            DecisionField::Taken => sp.taken.is_some(),
            DecisionField::Target => sp.target().is_some(),
        };
        let order = [
            preferred,
            DecisionField::Taken,
            DecisionField::Target,
            DecisionField::Kind,
        ];
        order
            .into_iter()
            .find(|&f| carried(f) && self.provider(slot, f).is_some())
            .unwrap_or(preferred)
    }

    /// Serializes the attribution into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        for arr in [
            &self.kind_provider,
            &self.taken_provider,
            &self.target_provider,
        ] {
            for &v in arr {
                w.write_u64(u64::from(v));
            }
        }
        for arr in [&self.proposed_taken, &self.proposed_target] {
            for &v in arr {
                w.write_u64(u64::from(v));
            }
        }
    }

    /// Decodes an attribution written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on malformed input.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        let mut a = PacketAttribution::EMPTY;
        for arr in [
            &mut a.kind_provider,
            &mut a.taken_provider,
            &mut a.target_provider,
        ] {
            for v in arr.iter_mut() {
                *v = r.read_u64_capped("attribution provider", 0xff)? as u8;
            }
        }
        for arr in [&mut a.proposed_taken, &mut a.proposed_target] {
            for v in arr.iter_mut() {
                *v = r.read_u64_capped("attribution proposal mask", 0xff)? as u8;
            }
        }
        Ok(a)
    }
}

impl Default for PacketAttribution {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Per-component event and outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCounters {
    /// Predict queries this component received.
    pub queries: u64,
    /// `fire` events received (packets accepted into the backend).
    pub fires: u64,
    /// `mispredict` fast-update events received.
    pub mispredict_events: u64,
    /// `repair` events received (squash restores).
    pub repairs: u64,
    /// Commit-time `update` events received.
    pub updates: u64,
    /// Packets whose steering decision this component's value provided.
    pub provided_final: u64,
    /// Packets where this component proposed the decision field but
    /// another component's value won.
    pub overridden: u64,
    /// Direction mispredicts blamed on this component.
    pub direction_blame: u64,
    /// Target mispredicts blamed on this component.
    pub target_blame: u64,
}

impl ComponentCounters {
    /// Total mispredict blame (direction + target).
    pub fn blame(&self) -> u64 {
        self.direction_blame + self.target_blame
    }

    fn delta(&self, earlier: &ComponentCounters) -> ComponentCounters {
        ComponentCounters {
            queries: self.queries - earlier.queries,
            fires: self.fires - earlier.fires,
            mispredict_events: self.mispredict_events - earlier.mispredict_events,
            repairs: self.repairs - earlier.repairs,
            updates: self.updates - earlier.updates,
            provided_final: self.provided_final - earlier.provided_final,
            overridden: self.overridden - earlier.overridden,
            direction_blame: self.direction_blame - earlier.direction_blame,
            target_blame: self.target_blame - earlier.target_blame,
        }
    }
}

/// One component's row in an [`AttributionReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentAttribution {
    /// Component label (topology name), or [`STATIC_LABEL`] for the
    /// unattributed pseudo-component.
    pub label: String,
    /// The counters.
    pub counters: ComponentCounters,
}

/// One edge of the override-chain histogram: `winner`'s value steered a
/// packet for whose decision field `loser` had also proposed a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverrideEdge {
    /// The component whose value won.
    pub winner: String,
    /// The component whose proposal lost.
    pub loser: String,
    /// Packets on which this happened.
    pub count: u64,
}

/// The attribution summary folded into the end-of-run report.
///
/// `components` lists every pipeline node in dataflow order plus a final
/// [`STATIC_LABEL`] row absorbing blame for packets no component steered.
/// The invariant the property tests enforce: the blame columns sum to the
/// host core's `cond_mispredicts + target_mispredicts`, and
/// `provided_final` sums to `packets_with_prediction`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionReport {
    /// Per-component rows (dataflow order, then the static row).
    pub components: Vec<ComponentAttribution>,
    /// Queried packets whose final composed bundle carried any prediction.
    pub packets_with_prediction: u64,
    /// History-file occupancy high-water mark (entries).
    pub hf_high_water: u64,
    /// Global-history snapshot restores (revisions, mispredict rewinds,
    /// squashes, flushes).
    pub ghist_snapshot_repairs: u64,
    /// Local-history table repairs.
    pub lhist_repairs: u64,
    /// Override-chain histogram, nonzero edges only.
    pub overrides: Vec<OverrideEdge>,
}

impl AttributionReport {
    /// Total mispredict blame across all rows (including static).
    pub fn total_blame(&self) -> u64 {
        self.components.iter().map(|c| c.counters.blame()).sum()
    }

    /// Sum of `provided_final` across component rows.
    pub fn total_provided(&self) -> u64 {
        self.components
            .iter()
            .map(|c| c.counters.provided_final)
            .sum()
    }

    /// Field-wise difference `self − earlier` for warm-up exclusion.
    /// Monotonic counters subtract; the occupancy high-water mark keeps
    /// the later (whole-run) value.
    pub fn delta(&self, earlier: &AttributionReport) -> AttributionReport {
        let components = self
            .components
            .iter()
            .zip(&earlier.components)
            .map(|(now, was)| ComponentAttribution {
                label: now.label.clone(),
                counters: now.counters.delta(&was.counters),
            })
            .collect();
        let mut base: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for e in &earlier.overrides {
            base.insert((&e.winner, &e.loser), e.count);
        }
        let overrides = self
            .overrides
            .iter()
            .filter_map(|e| {
                let count = e.count
                    - base
                        .get(&(e.winner.as_str(), e.loser.as_str()))
                        .copied()
                        .unwrap_or(0);
                (count > 0).then(|| OverrideEdge {
                    winner: e.winner.clone(),
                    loser: e.loser.clone(),
                    count,
                })
            })
            .collect();
        AttributionReport {
            components,
            packets_with_prediction: self.packets_with_prediction - earlier.packets_with_prediction,
            hf_high_water: self.hf_high_water,
            ghist_snapshot_repairs: self.ghist_snapshot_repairs - earlier.ghist_snapshot_repairs,
            lhist_repairs: self.lhist_repairs - earlier.lhist_repairs,
            overrides,
        }
    }
}

/// Per-PC mispredict blame: total and per-row (component rows then
/// static), recorded only when PC attribution is enabled.
pub type PcBlame = BTreeMap<u64, Vec<u64>>;

/// The per-component statistics sink a [`BranchPredictorUnit`] owns.
///
/// [`BranchPredictorUnit`]: crate::composer::BranchPredictorUnit
#[derive(Debug, Clone)]
pub struct StatsSink {
    labels: Vec<String>,
    /// Per-row outcome counters. The broadcast fields (queries, fires,
    /// mispredict_events, repairs, updates) are kept zero here and held
    /// in the scalars below instead — they are identical for every
    /// component row by construction, so the hot path pays one increment
    /// per event, not one per component. [`Self::counters`] and
    /// [`Self::report`] merge them back in.
    counters: Vec<ComponentCounters>,
    /// Flattened `n × n` winner-major override matrix (component rows
    /// only).
    override_pairs: Vec<u64>,
    n: usize,
    queries: u64,
    fires: u64,
    mispredict_events: u64,
    repairs: u64,
    updates: u64,
    packets_with_prediction: u64,
    hf_high_water: u64,
    ghist_snapshot_repairs: u64,
    lhist_repairs: u64,
    /// `pc → blame counts` per row (`n + 1` rows, static last); `None`
    /// until [`enable_pc_blame`](Self::enable_pc_blame).
    pc_blame: Option<PcBlame>,
}

impl StatsSink {
    /// A sink for the pipeline whose node labels (dataflow order) are
    /// `labels`; a [`STATIC_LABEL`] row is appended.
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        let mut labels = labels;
        labels.push(STATIC_LABEL.to_string());
        Self {
            counters: vec![ComponentCounters::default(); n + 1],
            override_pairs: vec![0; n * n],
            n,
            labels,
            queries: 0,
            fires: 0,
            mispredict_events: 0,
            repairs: 0,
            updates: 0,
            packets_with_prediction: 0,
            hf_high_water: 0,
            ghist_snapshot_repairs: 0,
            lhist_repairs: 0,
            pc_blame: None,
        }
    }

    /// Component labels (dataflow order) plus the trailing static row.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of real component rows (excluding the static row).
    pub fn num_components(&self) -> usize {
        self.n
    }

    /// Starts recording per-PC mispredict blame (off by default: it
    /// allocates per distinct branch PC).
    pub fn enable_pc_blame(&mut self) {
        if self.pc_blame.is_none() {
            self.pc_blame = Some(BTreeMap::new());
        }
    }

    /// The per-PC blame map, if enabled.
    pub fn pc_blame(&self) -> Option<&PcBlame> {
        self.pc_blame.as_ref()
    }

    /// Account one predict query: every component was queried; the
    /// decision provider of `final_bundle` (per `attr`) gets
    /// `provided_final`, losers of the decision field get `overridden`.
    pub fn note_query(&mut self, attr: &PacketAttribution, final_bundle: &PredictionBundle) {
        self.queries += 1;
        let Some((slot, field)) = attr.decision(final_bundle) else {
            return; // empty bundle: static fall-through, nothing provided
        };
        self.packets_with_prediction += 1;
        let winner = attr.provider(slot, field).unwrap_or(self.n);
        self.counters[winner].provided_final += 1;
        if winner >= self.n {
            return;
        }
        let mask = match field {
            DecisionField::Taken => &attr.proposed_taken,
            DecisionField::Target | DecisionField::Kind => &attr.proposed_target,
        };
        for (i, m) in mask
            .iter()
            .enumerate()
            .take(self.n.min(MAX_TRACKED_COMPONENTS))
        {
            if i != winner && (m >> slot) & 1 == 1 {
                self.counters[i].overridden += 1;
                self.override_pairs[winner * self.n + i] += 1;
            }
        }
    }

    /// Account a `fire` broadcast (all components receive it).
    pub fn note_fire(&mut self) {
        self.fires += 1;
    }

    /// Account a `mispredict` broadcast.
    pub fn note_mispredict_event(&mut self) {
        self.mispredict_events += 1;
    }

    /// Account a `repair` broadcast.
    pub fn note_repair(&mut self) {
        self.repairs += 1;
    }

    /// Account a commit-time `update` broadcast.
    pub fn note_update(&mut self) {
        self.updates += 1;
    }

    /// Charge one misprediction to `provider` (a node index, or `None`
    /// for the static row), as a target or direction miss at `pc`.
    pub fn note_blame(&mut self, provider: Option<usize>, target_miss: bool, pc: u64) {
        let row = provider.filter(|&p| p < self.n).unwrap_or(self.n);
        if target_miss {
            self.counters[row].target_blame += 1;
        } else {
            self.counters[row].direction_blame += 1;
        }
        let n = self.n;
        if let Some(map) = self.pc_blame.as_mut() {
            let e = map.entry(pc).or_insert_with(|| vec![0; n + 1]);
            e[row] += 1;
        }
    }

    /// Record the history file's occupancy after an allocation.
    pub fn note_hf_occupancy(&mut self, entries: usize) {
        self.hf_high_water = self.hf_high_water.max(entries as u64);
    }

    /// Record one global-history snapshot restore.
    pub fn note_ghist_rewind(&mut self) {
        self.ghist_snapshot_repairs += 1;
    }

    /// Record one local-history repair.
    pub fn note_lhist_repair(&mut self) {
        self.lhist_repairs += 1;
    }

    /// One row's counters with the broadcast fields merged in (component
    /// rows then static; the static row receives no broadcasts).
    pub fn counters(&self, row: usize) -> ComponentCounters {
        let mut c = self.counters[row];
        if row < self.n {
            c.queries = self.queries;
            c.fires = self.fires;
            c.mispredict_events = self.mispredict_events;
            c.repairs = self.repairs;
            c.updates = self.updates;
        }
        c
    }

    /// Snapshot the sink into a report (nonzero override edges only,
    /// winner-major order — deterministic).
    pub fn report(&self) -> AttributionReport {
        let components = self
            .labels
            .iter()
            .enumerate()
            .map(|(row, label)| ComponentAttribution {
                label: label.clone(),
                counters: self.counters(row),
            })
            .collect();
        let mut overrides = Vec::new();
        for w in 0..self.n {
            for l in 0..self.n {
                let count = self.override_pairs[w * self.n + l];
                if count > 0 {
                    overrides.push(OverrideEdge {
                        winner: self.labels[w].clone(),
                        loser: self.labels[l].clone(),
                        count,
                    });
                }
            }
        }
        AttributionReport {
            components,
            packets_with_prediction: self.packets_with_prediction,
            hf_high_water: self.hf_high_water,
            ghist_snapshot_repairs: self.ghist_snapshot_repairs,
            lhist_repairs: self.lhist_repairs,
            overrides,
        }
    }

    /// Serializes the sink's counters for warm-state checkpoints.
    ///
    /// The per-PC blame map is observability-only and is *not*
    /// checkpointed; a restored run starts it empty.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.begin_section("stats");
        for c in &self.counters {
            w.write_u64(c.queries);
            w.write_u64(c.fires);
            w.write_u64(c.mispredict_events);
            w.write_u64(c.repairs);
            w.write_u64(c.updates);
            w.write_u64(c.provided_final);
            w.write_u64(c.overridden);
            w.write_u64(c.direction_blame);
            w.write_u64(c.target_blame);
        }
        for &p in &self.override_pairs {
            w.write_u64(p);
        }
        w.write_u64(self.queries);
        w.write_u64(self.fires);
        w.write_u64(self.mispredict_events);
        w.write_u64(self.repairs);
        w.write_u64(self.updates);
        w.write_u64(self.packets_with_prediction);
        w.write_u64(self.hf_high_water);
        w.write_u64(self.ghist_snapshot_repairs);
        w.write_u64(self.lhist_repairs);
        w.end_section();
    }

    /// Restores counters written by [`save_state`](Self::save_state) into
    /// a sink built for the same pipeline (same labels, same row count).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        r.open_section("stats")?;
        for c in &mut self.counters {
            c.queries = r.read_u64("row queries")?;
            c.fires = r.read_u64("row fires")?;
            c.mispredict_events = r.read_u64("row mispredict events")?;
            c.repairs = r.read_u64("row repairs")?;
            c.updates = r.read_u64("row updates")?;
            c.provided_final = r.read_u64("row provided final")?;
            c.overridden = r.read_u64("row overridden")?;
            c.direction_blame = r.read_u64("row direction blame")?;
            c.target_blame = r.read_u64("row target blame")?;
        }
        for p in &mut self.override_pairs {
            *p = r.read_u64("override pair")?;
        }
        self.queries = r.read_u64("queries")?;
        self.fires = r.read_u64("fires")?;
        self.mispredict_events = r.read_u64("mispredict events")?;
        self.repairs = r.read_u64("repairs")?;
        self.updates = r.read_u64("updates")?;
        self.packets_with_prediction = r.read_u64("packets with prediction")?;
        self.hf_high_water = r.read_u64("hf high water")?;
        self.ghist_snapshot_repairs = r.read_u64("ghist snapshot repairs")?;
        self.lhist_repairs = r.read_u64("lhist repairs")?;
        r.close_section()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr_with(taken0: u8) -> PacketAttribution {
        let mut a = PacketAttribution::EMPTY;
        a.taken_provider[0] = taken0;
        a
    }

    fn taken_bundle() -> PredictionBundle {
        let mut b = PredictionBundle::new(4);
        b.slot_mut(0).kind = Some(BranchKind::Conditional);
        b.slot_mut(0).taken = Some(true);
        b.slot_mut(0).set_target(Some(0x40));
        b
    }

    #[test]
    fn decision_prefers_direction_on_conditional_redirect() {
        let a = attr_with(1);
        let b = taken_bundle();
        assert_eq!(a.decision(&b), Some((0, DecisionField::Taken)));
    }

    #[test]
    fn decision_none_on_empty_bundle() {
        let a = PacketAttribution::EMPTY;
        assert_eq!(a.decision(&PredictionBundle::new(4)), None);
    }

    #[test]
    fn provided_final_sums_to_packets_with_prediction() {
        let mut s = StatsSink::new(vec!["A".into(), "B".into()]);
        let b = taken_bundle();
        s.note_query(&attr_with(0), &b);
        s.note_query(&attr_with(1), &b);
        s.note_query(&PacketAttribution::EMPTY, &PredictionBundle::new(4));
        let r = s.report();
        assert_eq!(r.packets_with_prediction, 2);
        assert_eq!(r.total_provided(), 2);
        assert_eq!(r.components[0].counters.queries, 3);
    }

    #[test]
    fn override_edges_count_losing_proposals() {
        let mut s = StatsSink::new(vec!["A".into(), "B".into()]);
        let mut a = attr_with(1); // B's direction won
        a.proposed_taken[0] = 0b1; // A also proposed slot 0
        a.proposed_taken[1] = 0b1;
        s.note_query(&a, &taken_bundle());
        let r = s.report();
        assert_eq!(r.components[0].counters.overridden, 1);
        assert_eq!(r.overrides.len(), 1);
        assert_eq!(r.overrides[0].winner, "B");
        assert_eq!(r.overrides[0].loser, "A");
    }

    #[test]
    fn blame_lands_on_provider_or_static() {
        let mut s = StatsSink::new(vec!["A".into()]);
        s.enable_pc_blame();
        s.note_blame(Some(0), false, 0x10);
        s.note_blame(None, true, 0x10);
        let r = s.report();
        assert_eq!(r.components[0].counters.direction_blame, 1);
        assert_eq!(r.components[1].label, STATIC_LABEL);
        assert_eq!(r.components[1].counters.target_blame, 1);
        assert_eq!(r.total_blame(), 2);
        assert_eq!(s.pc_blame().unwrap()[&0x10], vec![1, 1]);
    }

    #[test]
    fn report_delta_subtracts_counters_keeps_high_water() {
        let mut s = StatsSink::new(vec!["A".into()]);
        s.note_query(&attr_with(0), &taken_bundle());
        s.note_hf_occupancy(5);
        let early = s.report();
        s.note_query(&attr_with(0), &taken_bundle());
        s.note_hf_occupancy(9);
        s.note_ghist_rewind();
        let late = s.report();
        let d = late.delta(&early);
        assert_eq!(d.packets_with_prediction, 1);
        assert_eq!(d.components[0].counters.provided_final, 1);
        assert_eq!(d.hf_high_water, 9);
        assert_eq!(d.ghist_snapshot_repairs, 1);
    }
}
