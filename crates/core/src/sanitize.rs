//! The simulation sanitizer: cheap runtime invariant checks, off by
//! default.
//!
//! The static analyzer ([`crate::analysis`]) proves properties of a
//! *topology*; the sanitizer checks the properties that only hold (or
//! break) *dynamically* — per packet, per event — while a simulation runs:
//!
//! * **Monotonic refinement**: across pipeline stages, a composed
//!   prediction may only be refined, never degraded — once a stage
//!   resolves a slot's direction or target, later stages must carry a
//!   prediction for that slot too (checked in the pipeline's stage fold);
//! * **Metadata consistency**: every event broadcast (fire, mispredict,
//!   repair, update) must carry exactly one metadata word per component
//!   (checked in the event broadcast paths);
//! * **Protocol legality**: a fetch packet must not be accepted twice
//!   (checked in the unit's accept path).
//!
//! Enablement is resolved once, from either the `sanitize` cargo feature
//! or the `COBRA_SANITIZE` environment variable (an on/off switch,
//! [`crate::env::parse_switch`]), and
//! cached in an atomic — with the sanitizer off, each hook site costs one
//! relaxed load and a branch, keeping the hot path intact. Tests flip it
//! deterministically with [`set_enabled`].
//!
//! A violation panics with a `cobra-sanitizer:` prefix, so a failure in a
//! long simulation is unambiguous about which layer detected it.

use std::sync::atomic::{AtomicU8, Ordering};

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// `true` when sanitizer checks are active.
///
/// The first call resolves the state from the `sanitize` cargo feature or
/// the `COBRA_SANITIZE` environment variable; later calls are a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => resolve(),
    }
}

#[cold]
fn resolve() -> bool {
    // Racing first calls from several threads read the variable once.
    static ENV: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let on = cfg!(feature = "sanitize") || *ENV.get_or_init(|| crate::env::gate("COBRA_SANITIZE"));
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Forces the sanitizer on or off, overriding feature and environment.
///
/// Intended for tests that must exercise both modes deterministically.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Reports a sanitizer violation.
///
/// # Panics
///
/// Always — that is the point. The message carries the `cobra-sanitizer:`
/// prefix so the failing layer is unambiguous.
#[cold]
#[track_caller]
pub fn violation(msg: &str) -> ! {
    panic!("cobra-sanitizer: {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_overrides() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    #[should_panic(expected = "cobra-sanitizer: boom")]
    fn violation_panics_with_prefix() {
        violation("boom");
    }
}
