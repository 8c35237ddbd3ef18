//! The static resource model behind `cobra-area` (ROADMAP item 1's budget
//! oracle).
//!
//! A [`ResourceReport`] rolls a design's per-component storage
//! declarations — every SRAM macro with its geometry and port discipline,
//! plus flop bits — together with the management structures
//! [`BranchPredictorUnit::build`] would generate (history file, history
//! providers), into one machine-readable budget report. It is computed
//! from the elaborated [`DesignModel`] alone: no pipeline is built and no
//! packet is simulated, which is what makes it usable as the composer
//! autotuner's pruning oracle — a candidate topology over budget is
//! rejected before anything expensive happens.
//!
//! The numbers are *identical* to the runtime accounting
//! ([`BranchPredictorUnit::storage_by_component`] / `meta_storage`): the
//! `table1_storage` and `fig8_area` harnesses assert bit-exact equality on
//! every catalog design.
//!
//! [`BranchPredictorUnit::build`]: crate::composer::BranchPredictorUnit::build
//! [`BranchPredictorUnit::storage_by_component`]: crate::composer::BranchPredictorUnit::storage_by_component

use super::model::DesignModel;
use super::AnalysisConfig;
use crate::composer::{
    GlobalHistoryProvider, HistoryFile, LocalHistoryProvider, PathHistoryProvider,
};
use crate::obs::json_str;
use crate::types::StorageReport;
use cobra_sim::PortKind;

/// Storage of the management structures [`BranchPredictorUnit::build`]
/// would generate for this model, mirroring its construction (and merge
/// order) exactly.
///
/// Returns an empty report when the design wants a local history wider
/// than the 64-bit provider limit — the provider cannot be built and
/// `C0108` already reports the defect.
///
/// [`BranchPredictorUnit::build`]: crate::composer::BranchPredictorUnit::build
pub fn management_storage_report(model: &DesignModel, cfg: &AnalysisConfig) -> StorageReport {
    let lhist_bits = model
        .components
        .iter()
        .map(|c| c.local_history_bits)
        .max()
        .unwrap_or(0);
    if lhist_bits > 64 {
        return StorageReport::new();
    }
    let lhist_entries = if lhist_bits == 0 {
        1
    } else {
        model.lhist_entries.max(1)
    };
    let hf = HistoryFile::new(
        cfg.history_file_entries,
        model.ghist_bits,
        lhist_bits,
        model.meta_bits_total(),
    );
    let mut r = hf.storage();
    r.merge(&GlobalHistoryProvider::new(model.ghist_bits).storage());
    r.merge(&LocalHistoryProvider::new(lhist_entries.next_power_of_two(), lhist_bits).storage());
    r.merge(&PathHistoryProvider::new(16).storage());
    r
}

/// One design's static storage budget: per-component reports plus the
/// generated management structures.
#[derive(Debug)]
pub struct ResourceReport {
    /// Design name.
    pub design: String,
    /// Topology text.
    pub topology: String,
    /// Fetch width the components were instantiated for.
    pub width: u8,
    /// Per-component storage declarations, in dataflow order.
    pub components: Vec<(String, StorageReport)>,
    /// Management structures (history file + providers).
    pub management: StorageReport,
    /// Budget cap in KB, when the caller enforces one.
    pub budget_kb: Option<f64>,
}

impl ResourceReport {
    /// Computes the report from an elaborated model — statically, without
    /// building a pipeline.
    pub fn from_model(model: &DesignModel, cfg: &AnalysisConfig) -> Self {
        Self {
            design: model.name.clone(),
            topology: model.topology.clone(),
            width: model.width,
            components: model
                .components
                .iter()
                .map(|c| (c.label.clone(), c.storage.clone()))
                .collect(),
            management: management_storage_report(model, cfg),
            budget_kb: None,
        }
    }

    /// Sets the budget cap checked by [`over_budget_kb`](Self::over_budget_kb).
    pub fn with_budget_kb(mut self, kb: f64) -> Self {
        self.budget_kb = Some(kb);
        self
    }

    /// Summed component storage in bits (management excluded).
    pub fn component_bits(&self) -> u64 {
        self.components.iter().map(|(_, r)| r.total_bits()).sum()
    }

    /// Total storage in bits (components + management).
    pub fn total_bits(&self) -> u64 {
        self.component_bits() + self.management.total_bits()
    }

    /// Total storage in KB.
    pub fn total_kb(&self) -> f64 {
        self.total_bits() as f64 / 8192.0
    }

    /// By how many KB the design exceeds its budget, when it does.
    pub fn over_budget_kb(&self) -> Option<f64> {
        let budget = self.budget_kb?;
        let total = self.total_kb();
        (total > budget).then_some(total - budget)
    }

    /// Renders the report as one JSON object (the autotuner's pruning
    /// input): per-component SRAM geometry, flop bits, totals, and the
    /// budget verdict.
    pub fn render_json(&self) -> String {
        let components = self
            .components
            .iter()
            .map(|(label, r)| {
                let srams = r
                    .srams
                    .iter()
                    .map(|(name, s)| {
                        format!(
                            "{{\"name\":{},\"entries\":{},\"entry_bits\":{},\"banks\":{},\
                             \"ports\":{},\"bits\":{}}}",
                            json_str(name),
                            s.entries,
                            s.entry_bits,
                            s.banks,
                            json_str(port_name(s.ports)),
                            s.total_bits()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"label\":{},\"bits\":{},\"kilobytes\":{:.6},\"flop_bits\":{},\
                     \"srams\":[{srams}]}}",
                    json_str(label),
                    r.total_bits(),
                    r.kilobytes(),
                    r.flop_bits
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let budget = match self.budget_kb {
            Some(kb) => format!(
                ",\"budget_kb\":{kb:.6},\"within_budget\":{}",
                self.over_budget_kb().is_none()
            ),
            None => String::new(),
        };
        format!(
            "{{\"design\":{},\"topology\":{},\"width\":{},\"component_bits\":{},\
             \"management_bits\":{},\"total_bits\":{},\"total_kb\":{:.6},\
             \"components\":[{components}]{budget}}}",
            json_str(&self.design),
            json_str(&self.topology),
            self.width,
            self.component_bits(),
            self.management.total_bits(),
            self.total_bits(),
            self.total_kb(),
        )
    }
}

fn port_name(p: PortKind) -> &'static str {
    match p {
        PortKind::SinglePort => "1RW",
        PortKind::DualPort => "1R1W",
        PortKind::TwoReadOneWrite => "2R1W",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composer::{BpuConfig, BranchPredictorUnit};
    use crate::designs;

    fn model_of(d: &crate::composer::Design) -> DesignModel {
        DesignModel::build(
            &d.name,
            &d.topology,
            &d.registry,
            8,
            d.ghist_bits,
            d.lhist_entries,
        )
        .unwrap()
    }

    #[test]
    fn static_model_matches_runtime_accounting_bit_exactly() {
        for d in designs::catalog() {
            let model = model_of(&d);
            let cfg = AnalysisConfig::default();
            let report = ResourceReport::from_model(&model, &cfg);
            let bpu = BranchPredictorUnit::build(&d, BpuConfig::default()).unwrap();
            let runtime: Vec<(String, u64)> = bpu
                .storage_by_component()
                .into_iter()
                .map(|(l, r)| (l, r.total_bits()))
                .collect();
            let statics: Vec<(String, u64)> = report
                .components
                .iter()
                .map(|(l, r)| (l.clone(), r.total_bits()))
                .collect();
            assert_eq!(statics, runtime, "{} component storage diverged", d.name);
            assert_eq!(
                report.management.total_bits(),
                bpu.meta_storage().total_bits(),
                "{} management storage diverged",
                d.name
            );
            assert_eq!(
                report.total_bits(),
                bpu.total_storage().total_bits(),
                "{} total diverged",
                d.name
            );
        }
    }

    #[test]
    fn budget_verdicts() {
        let model = model_of(&designs::b2());
        let cfg = AnalysisConfig::default();
        let tight = ResourceReport::from_model(&model, &cfg).with_budget_kb(1.0);
        assert!(tight.over_budget_kb().is_some());
        let roomy = ResourceReport::from_model(&model, &cfg).with_budget_kb(10_000.0);
        assert!(roomy.over_budget_kb().is_none());
    }

    #[test]
    fn json_carries_geometry_and_budget() {
        let model = model_of(&designs::tournament());
        let j = ResourceReport::from_model(&model, &AnalysisConfig::default())
            .with_budget_kb(100.0)
            .render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"design\":\"Tournament\""));
        assert!(j.contains("\"ports\":"));
        assert!(j.contains("\"within_budget\":"));
    }
}
