//! Structured diagnostics for the static design analyzer.
//!
//! Every finding is a [`Diagnostic`] with a stable [`DiagCode`], a
//! [`Severity`], a message, and optionally the offending component label, a
//! [`Span`] into the topology text, and a fix hint. Diagnostics render both
//! human-readable (with a caret line under the topology) and as JSON.

use crate::error::Span;
use crate::obs::json_str;
use std::fmt;

/// Diagnostic severity.
///
/// `Note`-level diagnostics are informational (storage summaries and the
/// like) and are never promoted by `--deny warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational output; never fails a lint run.
    Note,
    /// A suspicious construction that still builds and simulates.
    Warning,
    /// A defect that makes the design unbuildable or meaningless;
    /// [`BranchPredictorUnit::build`](crate::composer::BranchPredictorUnit::build)
    /// refuses designs with error-level diagnostics.
    Error,
}

impl Severity {
    /// Lowercase name, as rendered in diagnostics (`error[C0201]: …`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable diagnostic codes emitted by the analyzer.
///
/// Codes are grouped by pass: `C00xx` parse, `C01xx` structural (L5),
/// `C02xx` latency (L1), `C03xx` metadata (L2), `C04xx` storage (L3),
/// `C05xx` reachability/shadowing (L4), `C06xx` history/field dataflow,
/// `C07xx` index interference. `P0xxx` codes come from the plan-soundness
/// verifier, which cross-checks the lowered [`ExecutionPlan`] against the
/// elaborated design. The code strings are part of the tool's public
/// contract: scripts may match on them, so they never change meaning.
///
/// [`ExecutionPlan`]: crate::composer::ExecutionPlan
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `C0001`: the topology text failed to parse.
    ParseError,
    /// `C0101`: a component name has no registry entry.
    UnknownComponent,
    /// `C0102`: the same component name appears more than once.
    DuplicateComponent,
    /// `C0103`: a component's declared arity does not match the inputs the
    /// topology supplies.
    ArityMismatch,
    /// `C0104`: a component declares a latency of zero or beyond the
    /// supported pipeline depth.
    InvalidLatency,
    /// `C0106`: a component wants local history but the design supplies no
    /// (or a degenerate) local-history table.
    LocalHistoryDisabled,
    /// `C0107`: a component reads more global-history bits than the
    /// design's global history register holds.
    GlobalHistoryShort,
    /// `C0108`: a component wants a local history wider than the provider
    /// supports (64 bits).
    LocalHistoryTooWide,
    /// `C0201`: an overriding component responds *earlier* than the
    /// component it overrides (latency inversion — the "refinement over
    /// time" contract runs backwards).
    LatencyInversion,
    /// `C0202`: an arbitration selector responds before some component in
    /// one of its arms, so it selects among predictions that do not exist
    /// yet.
    SelectorBeforeArm,
    /// `C0301`: a component declares more than 64 metadata bits.
    MetaTooWide,
    /// `C0302`: the summed per-component metadata exceeds the configured
    /// history-file budget.
    MetaBudgetExceeded,
    /// `C0401`: total storage drifts from the reference accounting beyond
    /// tolerance.
    StorageDrift,
    /// `C0402`: the storage summary (per-component attribution and the
    /// paper-reference delta).
    StorageSummary,
    /// `C0501`: a component is fully shadowed — everything it may predict
    /// is always provided, at an equal or earlier stage, by the component
    /// overriding it.
    ShadowedComponent,
    /// `C0502`: an override window of zero width — overrider and overridden
    /// respond at the same stage and the overrider unconditionally
    /// populates fields the overridden may produce.
    ZeroOverrideWindow,
    /// `C0601`: the design's global history register is more than twice as
    /// wide as any component's demand — over-provisioned speculative state
    /// that every checkpoint and repair must carry for nothing.
    GhistOverProvisioned,
    /// `C0602`: no component in the composition can ever populate a
    /// prediction field — the composed `may` union of the final output
    /// misses it, so downstream consumers read a constant.
    FieldNeverProduced,
    /// `C0701`: a history-indexed table keeps too few PC bits to separate
    /// branches that share history — distinct static branches alias onto
    /// the same rows on correlated streams (the paper's Tournament/`xz`
    /// Section V-B diagnosis, derived statically).
    IndexAliasing,
    /// `C0702`: two components share SRAM geometry (equal set count) and
    /// draw on the same history sources with identical widths, so their
    /// index streams are correlated and they mistrain together.
    CorrelatedIndexPair,
    /// `P0101`: the lowered plan's stage count or stage-1 schedule does
    /// not match the elaborated design.
    PlanStageCount,
    /// `P0102`: a node whose output can change at stage *s* is missing
    /// from the stage-*s* fold schedule — the plan would serve a stale
    /// composition.
    PlanScheduleMissing,
    /// `P0103`: a node is scheduled at a stage where its output cannot
    /// change — wasted folds, not wrong results.
    PlanScheduleSpurious,
    /// `P0201`: the plan's flat input-index arrays are not bijective with
    /// the topology's edges (wrong inputs, wrong order, or a broken
    /// contiguous partition).
    PlanInputMismatch,
    /// `P0301`: a cached per-node latency in the plan disagrees with the
    /// component's declared latency.
    PlanLatencyMismatch,
    /// `P0302`: a node's cached `wants_hist` flag contradicts the
    /// history-timing rule (`latency ≥ 2`).
    PlanHistMismatch,
    /// `P0401`: lowering took the `Custom` escape hatch for a component,
    /// so the plan schedules it conservatively every stage instead of
    /// compiling its fold set.
    PlanCustomFallback,
    /// `P0501`: the plan's node count or node identity disagrees with the
    /// elaborated design; deeper plan checks are skipped.
    PlanNodeCount,
}

impl DiagCode {
    /// The stable code string, e.g. `"C0201"`.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::ParseError => "C0001",
            DiagCode::UnknownComponent => "C0101",
            DiagCode::DuplicateComponent => "C0102",
            DiagCode::ArityMismatch => "C0103",
            DiagCode::InvalidLatency => "C0104",
            DiagCode::LocalHistoryDisabled => "C0106",
            DiagCode::GlobalHistoryShort => "C0107",
            DiagCode::LocalHistoryTooWide => "C0108",
            DiagCode::LatencyInversion => "C0201",
            DiagCode::SelectorBeforeArm => "C0202",
            DiagCode::MetaTooWide => "C0301",
            DiagCode::MetaBudgetExceeded => "C0302",
            DiagCode::StorageDrift => "C0401",
            DiagCode::StorageSummary => "C0402",
            DiagCode::ShadowedComponent => "C0501",
            DiagCode::ZeroOverrideWindow => "C0502",
            DiagCode::GhistOverProvisioned => "C0601",
            DiagCode::FieldNeverProduced => "C0602",
            DiagCode::IndexAliasing => "C0701",
            DiagCode::CorrelatedIndexPair => "C0702",
            DiagCode::PlanStageCount => "P0101",
            DiagCode::PlanScheduleMissing => "P0102",
            DiagCode::PlanScheduleSpurious => "P0103",
            DiagCode::PlanInputMismatch => "P0201",
            DiagCode::PlanLatencyMismatch => "P0301",
            DiagCode::PlanHistMismatch => "P0302",
            DiagCode::PlanCustomFallback => "P0401",
            DiagCode::PlanNodeCount => "P0501",
        }
    }

    /// The severity this code carries by default (a lint driver may
    /// promote warnings with deny flags).
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::ParseError
            | DiagCode::UnknownComponent
            | DiagCode::DuplicateComponent
            | DiagCode::ArityMismatch
            | DiagCode::InvalidLatency
            | DiagCode::LocalHistoryTooWide
            | DiagCode::LatencyInversion
            | DiagCode::SelectorBeforeArm
            | DiagCode::MetaTooWide => Severity::Error,
            DiagCode::LocalHistoryDisabled
            | DiagCode::GlobalHistoryShort
            | DiagCode::MetaBudgetExceeded
            | DiagCode::StorageDrift
            | DiagCode::ShadowedComponent
            | DiagCode::ZeroOverrideWindow
            | DiagCode::FieldNeverProduced => Severity::Warning,
            DiagCode::StorageSummary
            | DiagCode::GhistOverProvisioned
            | DiagCode::IndexAliasing
            | DiagCode::CorrelatedIndexPair => Severity::Note,
            DiagCode::PlanStageCount
            | DiagCode::PlanScheduleMissing
            | DiagCode::PlanInputMismatch
            | DiagCode::PlanLatencyMismatch
            | DiagCode::PlanHistMismatch
            | DiagCode::PlanNodeCount => Severity::Error,
            DiagCode::PlanScheduleSpurious | DiagCode::PlanCustomFallback => Severity::Warning,
        }
    }

    /// One-line description for `--list-codes` output and the README table.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::ParseError => "topology syntax error",
            DiagCode::UnknownComponent => "component name has no registry entry",
            DiagCode::DuplicateComponent => "component name appears more than once",
            DiagCode::ArityMismatch => "declared arity does not match supplied inputs",
            DiagCode::InvalidLatency => "latency is zero or exceeds the pipeline depth",
            DiagCode::LocalHistoryDisabled => "local history wanted but not provided",
            DiagCode::GlobalHistoryShort => "global history register narrower than required",
            DiagCode::LocalHistoryTooWide => "local history exceeds the 64-bit provider limit",
            DiagCode::LatencyInversion => "overriding component responds before the overridden",
            DiagCode::SelectorBeforeArm => "selector responds before an arm component",
            DiagCode::MetaTooWide => "per-component metadata exceeds 64 bits",
            DiagCode::MetaBudgetExceeded => "summed metadata exceeds the history-file budget",
            DiagCode::StorageDrift => "storage deviates from the reference accounting",
            DiagCode::StorageSummary => "storage summary",
            DiagCode::ShadowedComponent => "component can never contribute a prediction",
            DiagCode::ZeroOverrideWindow => "override window has zero width",
            DiagCode::GhistOverProvisioned => "global history far wider than any component demand",
            DiagCode::FieldNeverProduced => "no component can populate a prediction field",
            DiagCode::IndexAliasing => "history-indexed table keeps too few PC bits",
            DiagCode::CorrelatedIndexPair => "two tables share geometry and history sources",
            DiagCode::PlanStageCount => "plan stage schedules disagree with the design depth",
            DiagCode::PlanScheduleMissing => "changeable node missing from a fold schedule",
            DiagCode::PlanScheduleSpurious => "unchangeable node scheduled for a fold",
            DiagCode::PlanInputMismatch => "plan input arrays disagree with topology edges",
            DiagCode::PlanLatencyMismatch => "cached latency disagrees with the component",
            DiagCode::PlanHistMismatch => "cached wants-hist flag violates the timing rule",
            DiagCode::PlanCustomFallback => "lowering fell back to the Custom escape hatch",
            DiagCode::PlanNodeCount => "plan node set disagrees with the elaborated design",
        }
    }

    /// All codes, in code order (for `--list-codes`).
    pub fn all() -> &'static [DiagCode] {
        &[
            DiagCode::ParseError,
            DiagCode::UnknownComponent,
            DiagCode::DuplicateComponent,
            DiagCode::ArityMismatch,
            DiagCode::InvalidLatency,
            DiagCode::LocalHistoryDisabled,
            DiagCode::GlobalHistoryShort,
            DiagCode::LocalHistoryTooWide,
            DiagCode::LatencyInversion,
            DiagCode::SelectorBeforeArm,
            DiagCode::MetaTooWide,
            DiagCode::MetaBudgetExceeded,
            DiagCode::StorageDrift,
            DiagCode::StorageSummary,
            DiagCode::ShadowedComponent,
            DiagCode::ZeroOverrideWindow,
            DiagCode::GhistOverProvisioned,
            DiagCode::FieldNeverProduced,
            DiagCode::IndexAliasing,
            DiagCode::CorrelatedIndexPair,
            DiagCode::PlanStageCount,
            DiagCode::PlanScheduleMissing,
            DiagCode::PlanScheduleSpurious,
            DiagCode::PlanInputMismatch,
            DiagCode::PlanLatencyMismatch,
            DiagCode::PlanHistMismatch,
            DiagCode::PlanCustomFallback,
            DiagCode::PlanNodeCount,
        ]
    }

    /// Looks a code up by its string form (`"C0201"`), for allow/deny
    /// flags.
    pub fn from_code(s: &str) -> Option<DiagCode> {
        DiagCode::all().iter().copied().find(|c| c.code() == s)
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// Effective severity (defaults to the code's, may be promoted or
    /// demoted by a lint driver's deny/allow flags).
    pub severity: Severity,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// The offending component's registry label, when attributable.
    pub component: Option<String>,
    /// Byte range in the topology text, when attributable.
    pub span: Option<Span>,
    /// A suggested fix.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            message: message.into(),
            component: None,
            span: None,
            hint: None,
        }
    }

    /// Attaches the offending component's label.
    pub fn with_component(mut self, label: impl Into<String>) -> Self {
        self.component = Some(label.into());
        self
    }

    /// Attaches the offending span in the topology text.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// `true` when this diagnostic is error-level.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Renders the diagnostic with a caret line under `topology` (the text
    /// the span indexes into), plus the hint if present.
    pub fn render(&self, topology: &str) -> String {
        let mut out = self.to_string();
        if let Some(span) = self.span {
            out.push_str(&format!("\n  {topology}\n  {}", span.caret_line()));
        }
        if let Some(hint) = &self.hint {
            out.push_str(&format!("\n  hint: {hint}"));
        }
        out
    }

    /// Renders the diagnostic as a JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"code\":{}", json_str(self.code.code())),
            format!("\"severity\":{}", json_str(self.severity.name())),
            format!("\"message\":{}", json_str(&self.message)),
        ];
        if let Some(c) = &self.component {
            fields.push(format!("\"component\":{}", json_str(c)));
        }
        if let Some(s) = self.span {
            fields.push(format!(
                "\"span\":{{\"start\":{},\"end\":{}}}",
                s.start, s.end
            ));
        }
        if let Some(h) = &self.hint {
            fields.push(format!("\"hint\":{}", json_str(h)));
        }
        format!("{{{}}}", fields.join(","))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity,
            self.code.code(),
            self.message
        )?;
        if let Some(c) = &self.component {
            write!(f, " (component `{c}`)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = DiagCode::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.code(), b.code(), "{a:?} and {b:?} share a code");
            }
        }
        assert_eq!(
            DiagCode::from_code("C0201"),
            Some(DiagCode::LatencyInversion)
        );
        assert_eq!(DiagCode::from_code("C9999"), None);
    }

    #[test]
    fn severity_ordering_puts_errors_last() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn render_includes_caret_and_hint() {
        let d = Diagnostic::new(DiagCode::LatencyInversion, "boom")
            .with_component("X1")
            .with_span(Span::new(5, 7))
            .with_hint("fix it");
        let r = d.render("AAAA BB CC");
        assert!(r.contains("error[C0201]: boom"));
        assert!(r.contains("\n       ^^"), "caret under bytes 5..7: {r}");
        assert!(r.contains("hint: fix it"));
    }

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::new(DiagCode::ParseError, "bad \"quote\"").with_span(Span::new(0, 1));
        let j = d.to_json();
        assert!(j.contains("\"code\":\"C0001\""));
        assert!(j.contains("\\\"quote\\\""));
        assert!(j.contains("\"span\":{\"start\":0,\"end\":1}"));
    }
}
