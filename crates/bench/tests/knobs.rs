//! The hotpath bench knobs (`JSK_HOTPATH_ROUNDS`, `JSK_HOTPATH_STEADY`)
//! go through the shared `jsk_sim` knob parser, so an invalid value falls
//! back to the default with a warning instead of silently skewing the
//! committed baseline. These tests pin the exact fallback semantics the
//! bench binary sees.

use jsk_sim::knob::{env_knob, parse_knob};

#[test]
fn hotpath_knobs_fall_back_on_invalid_values() {
    // The defaults the hotpath bench passes for each knob.
    assert_eq!(
        parse_knob("JSK_HOTPATH_ROUNDS", "nope", 1_000_000),
        1_000_000
    );
    assert_eq!(parse_knob("JSK_HOTPATH_ROUNDS", "0", 1_000_000), 1_000_000);
    assert_eq!(parse_knob("JSK_HOTPATH_STEADY", "-4", 250_000), 250_000);
    assert_eq!(parse_knob("JSK_HOTPATH_STEADY", "1e6", 250_000), 250_000);
}

#[test]
fn hotpath_knobs_accept_positive_integers() {
    assert_eq!(parse_knob("JSK_HOTPATH_ROUNDS", "5000", 1_000_000), 5_000);
    assert_eq!(parse_knob("JSK_HOTPATH_STEADY", " 250000 ", 1), 250_000);
}

#[test]
fn hotpath_knobs_read_the_environment() {
    // Unique names: the environment is process-global and tests run
    // concurrently.
    std::env::set_var("JSK_HOTPATH_STEADY_TEST", "123");
    assert_eq!(env_knob("JSK_HOTPATH_STEADY_TEST", 250_000), 123);
    assert_eq!(env_knob("JSK_HOTPATH_STEADY_UNSET", 250_000), 250_000);
}
