//! The analysis corpus: the twelve CVE exploit programs plus the Listing 1
//! implicit-clock attack, each runnable in two modes:
//!
//! * **raw** — the undefended browser (legacy mediator). The analyzer must
//!   flag every program here: at least one race or attack signature.
//! * **kernel** — a [`JsKernel`] running a given policy (typically
//!   `policies/policy_deterministic.json`). The serialized dispatcher's
//!   chain and comm edges order everything the programs contend on, so the
//!   race detector must come back empty.

use crate::report::{analyze, AnalysisReport};
use jsk_attacks::cve_exploits::all_exploits;
use jsk_attacks::{listing1, LISTING1};
use jsk_browser::browser::{Browser, BrowserConfig};
use jsk_browser::mediator::{LegacyMediator, Mediator};
use jsk_browser::profile::BrowserProfile;
use jsk_browser::trace::Trace;
use jsk_core::policy::PolicySpec;
use jsk_core::{JsKernel, KernelConfig};

/// How a corpus program is scheduled and mediated.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusMode {
    /// Undefended: legacy mediator, raw scheduling.
    Raw,
    /// A kernel running exactly this policy.
    Kernel(PolicySpec),
}

/// The kernel configuration hosting one policy: the policy's scheduling
/// component (when present) drives the deterministic dispatcher; without
/// one the kernel only enforces the policy's API rules.
#[must_use]
pub fn kernel_config_for(spec: &PolicySpec) -> KernelConfig {
    let mut cfg = KernelConfig::timing_only();
    match spec.scheduling {
        Some(prediction) => {
            cfg.prediction = prediction;
            cfg.deterministic = true;
        }
        None => cfg.deterministic = false,
    }
    cfg.policies = vec![spec.clone()];
    cfg
}

fn mediator_for(mode: &CorpusMode) -> Box<dyn Mediator> {
    match mode {
        CorpusMode::Raw => Box::new(LegacyMediator),
        CorpusMode::Kernel(spec) => Box::new(JsKernel::new(kernel_config_for(spec))),
    }
}

/// Runs one corpus program and returns its trace. Listing 1 measures
/// the larger of its two secrets.
///
/// # Panics
///
/// Panics when `name` is not one of [`jsk_attacks::corpus_names`].
#[must_use]
pub fn run_program_trace(name: &str, mode: &CorpusMode, seed: u64) -> Trace {
    let exploit = (name != LISTING1).then(|| {
        all_exploits()
            .into_iter()
            .find(|e| e.cve().id() == name)
            .unwrap_or_else(|| panic!("unknown corpus program `{name}`"))
    });
    let mut cfg = BrowserConfig::new(BrowserProfile::chrome(), seed);
    if let Some(exploit) = &exploit {
        exploit.configure(&mut cfg);
    }
    let mut browser = Browser::new(cfg, mediator_for(mode));
    match exploit {
        Some(exploit) => exploit.run(&mut browser),
        None => {
            listing1::run(&mut browser, 2048 * 2048);
        }
    }
    browser.trace().clone()
}

/// Runs one corpus program through the full analyzer.
///
/// # Panics
///
/// Panics when `name` is not one of [`jsk_attacks::corpus_names`].
#[must_use]
pub fn run_program(name: &str, mode: &CorpusMode, seed: u64) -> AnalysisReport {
    analyze(&run_program_trace(name, mode, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::PatternKind;
    use jsk_attacks::corpus_names;

    #[test]
    fn corpus_has_thirteen_programs() {
        let names = corpus_names();
        assert_eq!(names.len(), 13);
        assert!(names.contains(&"CVE-2018-5092".to_owned()));
        assert_eq!(names.last().map(String::as_str), Some(LISTING1));
    }

    #[test]
    fn listing1_raw_run_shows_the_ticker() {
        let report = run_program(LISTING1, &CorpusMode::Raw, 1);
        assert!(report
            .patterns
            .iter()
            .any(|p| p.kind == PatternKind::ImplicitClockTicker));
    }

    #[test]
    #[should_panic(expected = "unknown corpus program")]
    fn unknown_program_panics() {
        let _ = run_program_trace("CVE-0000-0000", &CorpusMode::Raw, 1);
    }
}
