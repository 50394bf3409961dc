//! # jsk-attacks — the web concurrency attack suite
//!
//! Implementations of every attack in the paper's Table I:
//!
//! * **`setTimeout` implicit clock** ([`timer_attacks`]): cache attack,
//!   script parsing, image decoding, clock edge;
//! * **animation clocks** ([`raf_attacks`]): history sniffing, SVG
//!   filtering, floating point, CSS animation, Video/WebVTT;
//! * **event-loop monitoring** ([`loopscan`]);
//! * **CVE exploit scripts** ([`cve_exploits`]) for the twelve
//!   web-concurrency vulnerabilities;
//! * **Listing 1** ([`listing1`]), the paper's motivating attack: a
//!   worker's `postMessage` stream timing a secret-sized SVG filter.
//!
//! Two post-paper attack families ride with the fuzzer's seed corpus and
//! are defeated only by `KernelConfig::hardened()`:
//!
//! * **shared-event-loop contention** ([`contention`]) — Loophole-style
//!   throughput counting (Vila & Köpf);
//! * **ILP stealthy tickers** ([`ilp_ticker`]) — clock-free timers from
//!   racing increment chains (Hacky Racers, Xiao & Ainsworth).
//!
//! The [`harness`] runs any of them against any defense configuration and
//! returns statistical (timing) or oracle-based (CVE) verdicts — every cell
//! of Table I is *computed*, never hard-coded.

pub mod contention;
pub mod cve_exploits;
pub mod harness;
pub mod ilp_ticker;
pub mod listing1;
pub mod loopscan;
pub mod raf_attacks;
pub mod sab_clock;
pub mod ticker;
pub mod timer_attacks;

pub use contention::ContentionProbe;
pub use harness::{
    run_cve_attack, run_cve_attack_observed, run_timing_attack, run_timing_attack_observed,
    CveAttackResult, CveExploit, Secret, TimingAttack, TimingAttackResult,
};
pub use ilp_ticker::IlpTicker;
pub use listing1::LISTING1;
pub use loopscan::Loopscan;
pub use raf_attacks::{
    CssAnimationClock, FloatingPoint, HistorySniffing, SvgFiltering, VideoVttClock,
};
pub use sab_clock::SabClock;
pub use timer_attacks::{CacheAttack, ClockEdge, ImageDecoding, ScriptParsing};

/// All ten timing-attack rows of Table I, in the table's order.
#[must_use]
pub fn all_timing_attacks() -> Vec<Box<dyn TimingAttack>> {
    vec![
        Box::new(CacheAttack),
        Box::new(ScriptParsing::default()),
        Box::new(ImageDecoding::default()),
        Box::new(ClockEdge::default()),
        Box::new(HistorySniffing),
        Box::new(SvgFiltering::default()),
        Box::new(FloatingPoint),
        Box::new(Loopscan::default()),
        Box::new(CssAnimationClock::default()),
        Box::new(VideoVttClock::default()),
    ]
}

/// The 13-program attack corpus, by name: the twelve CVE ids in Table I
/// order, then [`LISTING1`]. The analysis corpus, the chaos matrix and the
/// served corpus schedules all key on these names.
#[must_use]
pub fn corpus_names() -> Vec<String> {
    cve_exploits::all_exploits()
        .iter()
        .map(|e| e.cve().id().to_owned())
        .chain(std::iter::once(LISTING1.to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_workloads::schedule::corpus_schedules;

    #[test]
    fn corpus_names_match_the_corpus_schedules_in_order() {
        let schedules: Vec<String> = corpus_schedules().into_iter().map(|s| s.name).collect();
        assert_eq!(corpus_names(), schedules);
    }
}
