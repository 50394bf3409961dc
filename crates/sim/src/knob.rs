//! Environment knobs: the one shared parser for `JSK_*` configuration
//! variables.
//!
//! Every crate that reads a knob (`JSK_TRIALS`, `JSK_FUZZ_ITERS`,
//! `JSK_PROVE_DEPTH`, `JSK_HOTPATH_ROUNDS`, …) goes through this
//! parser so the fallback semantics are identical everywhere: unset
//! means the default, present-but-invalid means the default *plus a
//! stderr warning* — a typo must never masquerade as deliberate
//! configuration. Lives in `jsk-sim` (the workspace's base crate) so the
//! analyzers can use it without depending on the bench harness.

/// Reads a positive integer knob from the environment.
///
/// An unset variable silently yields `default`; a present-but-invalid one
/// (unparsable, zero, negative) yields `default` **with a one-line warning
/// on stderr**, so `JSK_TRIALS=abc` can no longer masquerade as a
/// deliberate configuration.
#[must_use]
pub fn env_knob(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => parse_knob(name, &raw, default),
    }
}

/// The parse/fallback half of [`env_knob`], split out so the fallback
/// paths are unit-testable without mutating the process environment.
#[must_use]
pub fn parse_knob(name: &str, raw: &str, default: usize) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!(
                "warning: ignoring {name}={raw:?} (expected a positive \
                 integer); using default {default}"
            );
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_yields_default() {
        assert_eq!(env_knob("JSK_SIM_KNOB_UNSET", 11), 11);
    }

    #[test]
    fn parse_accepts_positive_integers_only() {
        assert_eq!(parse_knob("JSK_X", "12", 7), 12);
        assert_eq!(parse_knob("JSK_X", " 3 ", 7), 3, "whitespace tolerated");
        assert_eq!(parse_knob("JSK_X", "abc", 7), 7);
        assert_eq!(parse_knob("JSK_X", "", 7), 7);
        assert_eq!(parse_knob("JSK_X", "12.5", 7), 7);
        assert_eq!(parse_knob("JSK_X", "1e6", 7), 7, "no exponent notation");
        assert_eq!(parse_knob("JSK_X", " 250000 ", 7), 250_000);
        assert_eq!(parse_knob("JSK_X", "0", 7), 7);
        assert_eq!(parse_knob("JSK_X", "-3", 7), 7);
    }

    #[test]
    fn env_knob_reads_set_variables() {
        // Unique variable names: the test harness runs tests concurrently
        // and the environment is process-global.
        std::env::set_var("JSK_SIM_KNOB_VALID", "9");
        assert_eq!(env_knob("JSK_SIM_KNOB_VALID", 7), 9);
        std::env::set_var("JSK_SIM_KNOB_BAD", "nope");
        assert_eq!(env_knob("JSK_SIM_KNOB_BAD", 7), 7);
        std::env::set_var("JSK_SIM_KNOB_ZERO", "0");
        assert_eq!(env_knob("JSK_SIM_KNOB_ZERO", 7), 7);
    }
}
