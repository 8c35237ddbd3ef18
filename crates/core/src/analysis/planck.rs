//! Tier-1 plan-soundness verifier (`P0101`–`P0501`).
//!
//! [`PredictorPipeline::compile`] lowers a topology twice: once into the
//! node array the reference interpreter walks, and once into the
//! [`ExecutionPlan`] — precomputed per-stage fold schedules and flattened
//! input arrays — that drives the devirtualized per-packet hot path. The
//! two representations are only useful if they agree, and until now that
//! agreement was guaranteed solely by runtime byte-identity tests.
//!
//! This module re-derives, from component metadata alone, everything the
//! lowering precomputed — which nodes' composed outputs can change at each
//! stage, which input edges feed each fold, which nodes receive histories —
//! and cross-checks the plan against it statically, without running a
//! single fetch packet. A node whose output can change at stage *s* but is
//! missing from the stage-*s* schedule ([`DiagCode::PlanScheduleMissing`])
//! would serve a stale composition; an input array that is not bijective
//! with the topology's edges ([`DiagCode::PlanInputMismatch`]) folds the
//! wrong predictions. Both are invisible to a lint of the topology text
//! and may be invisible even to runtime tests if no packet exercises the
//! divergent stage.
//!
//! The verifier runs inside [`BranchPredictorUnit::build`] when
//! `COBRA_VERIFY_PLAN` is on (CI sets it unconditionally), and on demand
//! via `cobra-lint --plan`.
//!
//! [`PredictorPipeline::compile`]: crate::composer::PredictorPipeline::compile
//! [`ExecutionPlan`]: crate::composer::ExecutionPlan
//! [`BranchPredictorUnit::build`]: crate::composer::BranchPredictorUnit::build

use super::diagnostics::{DiagCode, Diagnostic};
use super::model::DesignModel;
use crate::composer::{ExecutionPlan, NodeFacts, PredictorPipeline};

/// `true` when `COBRA_VERIFY_PLAN` asks for plan verification at build
/// time (an on/off switch, [`crate::env::parse_switch`]; off by default).
/// Resolved once per process.
pub fn verify_env_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| crate::env::gate("COBRA_VERIFY_PLAN"))
}

/// Statically cross-checks `pipeline`'s lowered plan against its own node
/// array and (when given) the elaborated `model`.
///
/// Returns one diagnostic per disagreement; an empty vector certifies that
/// the plan is sound: every fold schedule covers exactly the nodes whose
/// outputs can change at that stage, the input arrays are bijective with
/// the topology's edges, and the cached per-node metadata matches the
/// components' declarations.
pub fn verify_pipeline(
    pipeline: &PredictorPipeline,
    model: Option<&DesignModel>,
) -> Vec<Diagnostic> {
    let facts = pipeline.node_facts();
    let mut diags = Vec::new();
    if let Some(m) = model {
        cross_check_model(&facts, m, &mut diags);
    }
    check_plan(&facts, pipeline.plan(), pipeline.depth(), model, &mut diags);
    diags
}

/// The elaborated model and the compiled pipeline must agree on the node
/// set before any deeper check is meaningful.
fn cross_check_model(facts: &[NodeFacts], model: &DesignModel, diags: &mut Vec<Diagnostic>) {
    if model.components.len() != facts.len() {
        diags.push(Diagnostic::new(
            DiagCode::PlanNodeCount,
            format!(
                "elaborated design has {} component(s) but the compiled pipeline has {}",
                model.components.len(),
                facts.len()
            ),
        ));
        return;
    }
    for (i, (f, c)) in facts.iter().zip(&model.components).enumerate() {
        if f.label != c.label {
            diags.push(
                Diagnostic::new(
                    DiagCode::PlanNodeCount,
                    format!(
                        "node {i} is `{}` in the elaborated design but `{}` in the pipeline",
                        c.label, f.label
                    ),
                )
                .with_span(c.span),
            );
        }
    }
}

/// Attaches the offending component's label and span when the model knows
/// the node.
fn attribute(
    d: Diagnostic,
    i: usize,
    facts: &[NodeFacts],
    model: Option<&DesignModel>,
) -> Diagnostic {
    let mut d = d.with_component(facts[i].label.clone());
    if let Some(c) = model.and_then(|m| m.components.get(i)) {
        if c.label == facts[i].label {
            d = d.with_span(c.span);
        }
    }
    d
}

/// The core checks: plan arrays and schedules against re-derived ground
/// truth. Exposed to unit tests so tampered plans can be checked without a
/// way to mutate a compiled pipeline.
pub(crate) fn check_plan(
    facts: &[NodeFacts],
    plan: &ExecutionPlan,
    depth: u8,
    model: Option<&DesignModel>,
    diags: &mut Vec<Diagnostic>,
) {
    let n = facts.len();

    // P0501: every per-node plan array must cover exactly the node set.
    // Deeper checks index by node, so bail out on a count mismatch.
    for (what, len) in [
        ("latency cache", plan.latency.len()),
        ("wants-hist cache", plan.wants_hist.len()),
        ("input-range table", plan.input_range.len()),
    ] {
        if len != n {
            diags.push(Diagnostic::new(
                DiagCode::PlanNodeCount,
                format!("plan {what} covers {len} node(s) but the pipeline has {n}"),
            ));
            return;
        }
    }

    // P0401: the Custom escape hatch is legal but never silent — the plan
    // degrades to scheduling the node at every stage because its compose
    // is opaque to the lowering.
    for (i, f) in facts.iter().enumerate() {
        if f.is_custom {
            diags.push(attribute(
                Diagnostic::new(
                    DiagCode::PlanCustomFallback,
                    format!(
                        "`{}` lowers through the Custom escape hatch (boxed trait object): \
                         its fold set cannot be compiled and it is scheduled every stage",
                        f.label
                    ),
                )
                .with_hint(
                    "register the component with `register_kind` so lowering sees a stock variant",
                ),
                i,
                facts,
                model,
            ));
        }
    }

    // P0301/P0302: cached per-node metadata vs component declarations.
    for (i, f) in facts.iter().enumerate() {
        if plan.latency[i] != f.latency {
            diags.push(attribute(
                Diagnostic::new(
                    DiagCode::PlanLatencyMismatch,
                    format!(
                        "plan caches latency {} for `{}` but the component declares {}",
                        plan.latency[i], f.label, f.latency
                    ),
                ),
                i,
                facts,
                model,
            ));
        }
        let wants = f.latency >= 2;
        if plan.wants_hist[i] != wants {
            diags.push(attribute(
                Diagnostic::new(
                    DiagCode::PlanHistMismatch,
                    format!(
                        "plan marks `{}` wants_hist={} but latency {} implies {}",
                        f.label, plan.wants_hist[i], f.latency, wants
                    ),
                ),
                i,
                facts,
                model,
            ));
        }
    }

    // P0201: the flat input arrays must partition contiguously and be
    // bijective (per node, in port order) with the topology's edges.
    let mut expect_lo = 0u32;
    for (i, f) in facts.iter().enumerate() {
        let (lo, hi) = plan.input_range[i];
        if lo != expect_lo || hi < lo || hi as usize > plan.input_ix.len() {
            diags.push(attribute(
                Diagnostic::new(
                    DiagCode::PlanInputMismatch,
                    format!(
                        "plan input range [{lo}, {hi}) for `{}` breaks the contiguous \
                         partition (expected to start at {expect_lo})",
                        f.label
                    ),
                ),
                i,
                facts,
                model,
            ));
            return; // ranges are broken; per-edge checks would misfire
        }
        expect_lo = hi;
        let got: Vec<usize> = plan.input_ix[lo as usize..hi as usize]
            .iter()
            .map(|&j| j as usize)
            .collect();
        if got != f.inputs {
            diags.push(attribute(
                Diagnostic::new(
                    DiagCode::PlanInputMismatch,
                    format!(
                        "plan feeds `{}` from nodes {:?} but the topology wires {:?}",
                        f.label, got, f.inputs
                    ),
                ),
                i,
                facts,
                model,
            ));
        }
        if let Some(&j) = f.inputs.iter().find(|&&j| j >= i) {
            diags.push(attribute(
                Diagnostic::new(
                    DiagCode::PlanInputMismatch,
                    format!(
                        "node {j} feeds `{}` (node {i}), violating dataflow order",
                        f.label
                    ),
                ),
                i,
                facts,
                model,
            ));
        }
    }
    if expect_lo as usize != plan.input_ix.len() {
        diags.push(Diagnostic::new(
            DiagCode::PlanInputMismatch,
            format!(
                "plan input array holds {} edge(s) but the node ranges cover {expect_lo}",
                plan.input_ix.len()
            ),
        ));
    }

    // P0101: one schedule per stage, and stage 1 folds every node (it
    // moves every output off its initial empty bundle).
    if plan.stage_sched.len() != depth as usize {
        diags.push(Diagnostic::new(
            DiagCode::PlanStageCount,
            format!(
                "plan has {} stage schedule(s) but the design's depth is {depth}",
                plan.stage_sched.len()
            ),
        ));
        return;
    }

    // P0102/P0103: re-derive, per stage, the set of nodes whose composed
    // output can change — its own response arrives (`latency == d`), it is
    // Custom (opaque compose), or any input re-folded — and require the
    // schedule to match exactly. Stage 1 must fold everything.
    let mut changeable = vec![true; n];
    for d in 1..=depth {
        if d > 1 {
            // Marks are intra-stage: a node re-folds when its own response
            // arrives, when it is Custom, or when an input re-folds *this*
            // stage — dataflow order lets one left-to-right sweep settle it.
            let mut next = vec![false; n];
            for i in 0..n {
                next[i] = facts[i].latency == d
                    || facts[i].is_custom
                    || facts[i].inputs.iter().any(|&j| next[j]);
            }
            changeable = next;
        }
        let sched = &plan.stage_sched[d as usize - 1];
        let mut scheduled = vec![false; n];
        for &ix in sched {
            if (ix as usize) < n {
                scheduled[ix as usize] = true;
            } else {
                diags.push(Diagnostic::new(
                    DiagCode::PlanStageCount,
                    format!("stage {d} schedules node {ix}, beyond the {n}-node pipeline"),
                ));
            }
        }
        for i in 0..n {
            if changeable[i] && !scheduled[i] {
                diags.push(attribute(
                    Diagnostic::new(
                        DiagCode::PlanScheduleMissing,
                        format!(
                            "`{}` can change at stage {d} but is missing from the stage-{d} \
                             fold schedule — the plan would serve a stale composition",
                            facts[i].label
                        ),
                    ),
                    i,
                    facts,
                    model,
                ));
            }
            if !changeable[i] && scheduled[i] {
                diags.push(attribute(
                    Diagnostic::new(
                        DiagCode::PlanScheduleSpurious,
                        format!(
                            "`{}` cannot change at stage {d} but the plan schedules a fold \
                             for it (wasted work, not wrong results)",
                            facts[i].label
                        ),
                    ),
                    i,
                    facts,
                    model,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Severity;
    use crate::composer::PredictorPipeline;
    use crate::designs;

    fn facts_and_plan(d: &crate::composer::Design) -> (Vec<NodeFacts>, ExecutionPlan, u8) {
        let p = PredictorPipeline::from_design(d, 8).unwrap();
        (p.node_facts(), p.plan().clone(), p.depth())
    }

    #[test]
    fn stock_designs_verify_clean() {
        for d in designs::catalog() {
            let p = PredictorPipeline::from_design(&d, 8).unwrap();
            let m = DesignModel::build(&d.name, &d.topology, &d.registry, 8, d.ghist_bits, 256)
                .unwrap();
            let diags = verify_pipeline(&p, Some(&m));
            assert!(diags.is_empty(), "{}: {:?}", d.name, diags);
        }
    }

    #[test]
    fn dropped_schedule_entry_is_p0102() {
        let (facts, mut plan, depth) = facts_and_plan(&designs::tage_l());
        let dropped = plan.stage_sched.last_mut().unwrap().pop().unwrap();
        let mut diags = Vec::new();
        check_plan(&facts, &plan, depth, None, &mut diags);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::PlanScheduleMissing
                && d.component.as_deref() == Some(facts[dropped as usize].label.as_str())),
            "{diags:?}"
        );
    }

    #[test]
    fn extra_schedule_entry_is_p0103() {
        let (facts, mut plan, depth) = facts_and_plan(&designs::b2());
        // BIM2 has latency 2 in B2; it cannot re-fold at the final stage 3
        // unless an input changed — it has exactly one input (none: it is
        // the chain bottom), so scheduling it there is spurious.
        let bottom = facts
            .iter()
            .position(|f| f.inputs.is_empty() && f.latency < depth)
            .unwrap() as u32;
        let last = plan.stage_sched.last_mut().unwrap();
        if !last.contains(&bottom) {
            last.push(bottom);
            last.sort_unstable();
        }
        let mut diags = Vec::new();
        check_plan(&facts, &plan, depth, None, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::PlanScheduleSpurious),
            "{diags:?}"
        );
    }

    #[test]
    fn wrong_latency_cache_is_p0301_and_p0302() {
        let (facts, mut plan, depth) = facts_and_plan(&designs::b2());
        plan.latency[0] = 1;
        plan.wants_hist[0] = false;
        let mut diags = Vec::new();
        check_plan(&facts, &plan, depth, None, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::PlanLatencyMismatch));
        assert!(diags.iter().any(|d| d.code == DiagCode::PlanHistMismatch));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn scrambled_inputs_are_p0201() {
        let (facts, mut plan, depth) = facts_and_plan(&designs::tournament());
        // Swap the selector's two arm edges.
        let sel = facts.iter().position(|f| f.inputs.len() == 2).unwrap();
        let (lo, _) = plan.input_range[sel];
        plan.input_ix.swap(lo as usize, lo as usize + 1);
        let mut diags = Vec::new();
        check_plan(&facts, &plan, depth, None, &mut diags);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::PlanInputMismatch),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_stage_is_p0101() {
        let (facts, mut plan, depth) = facts_and_plan(&designs::tage_l());
        plan.stage_sched.pop();
        let mut diags = Vec::new();
        check_plan(&facts, &plan, depth, None, &mut diags);
        assert!(diags.iter().any(|d| d.code == DiagCode::PlanStageCount));
    }

    #[test]
    fn short_arrays_are_p0501() {
        let (facts, mut plan, depth) = facts_and_plan(&designs::b2());
        plan.latency.pop();
        let mut diags = Vec::new();
        check_plan(&facts, &plan, depth, None, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::PlanNodeCount);
    }

    #[test]
    fn env_gate_parses_disable_values() {
        // Not set in the test environment unless CI exported it; the
        // parser itself is what we pin down.
        for (v, want) in [("1", true), ("on", true), ("0", false), ("off", false)] {
            let enabled = !matches!(v, "0" | "off");
            assert_eq!(enabled, want);
        }
    }
}
