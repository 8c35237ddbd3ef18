//! The only place the simulator crates read the environment: the
//! process-wide debug gates CI arms for whole test runs (`COBRA_TRACE`,
//! `COBRA_SANITIZE`, `COBRA_VERIFY_PLAN`), and the one on/off parser
//! every `COBRA_*` switch shares. The harness's run knobs are resolved
//! by `cobra_bench::config::RunConfig` and passed down.

/// The value of the environment variable `name`, trimmed; `None` when
/// unset, empty or not Unicode.
pub fn var(name: &str) -> Option<String> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    (!v.is_empty()).then(|| v.to_string())
}

/// Parses an on/off value, case-insensitively: `1`/`on`/`true` is on,
/// `0`/`off`/`false` is off, anything else `None`.
pub fn parse_switch(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

/// The stderr warning for a switch `name` set to the unparsable `raw`,
/// which then takes its `default`.
pub fn switch_warning(name: &str, raw: &str, default: bool) -> String {
    format!(
        "warning: {name}={raw:?} is not on/off (1/on/true or 0/off/false); \
         using the default ({})",
        if default { "on" } else { "off" }
    )
}

/// The debug gate `name` as an on/off switch, off by default. An
/// unparsable value warns on stderr and leaves the gate off.
pub fn gate(name: &str) -> bool {
    let Some(raw) = var(name) else {
        return false;
    };
    parse_switch(&raw).unwrap_or_else(|| {
        eprintln!("{}", switch_warning(name, &raw, false));
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_spellings() {
        for on in ["1", "on", "ON", "true", "True", " on "] {
            assert_eq!(parse_switch(on), Some(true), "{on:?}");
        }
        for off in ["0", "off", "OFF", "false", "FALSE"] {
            assert_eq!(parse_switch(off), Some(false), "{off:?}");
        }
        for bad in ["", "yes", "no", "2", "interpreter"] {
            assert_eq!(parse_switch(bad), None, "{bad:?}");
        }
    }
}
