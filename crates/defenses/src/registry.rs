//! The defense registry: one constructor per column of Table I / curve of
//! Figure 3, pairing each defense with the engine it ships on.

use crate::chrome_zero::ChromeZero;
use crate::deterfox::DeterFox;
use crate::fuzzyfox::Fuzzyfox;
use crate::tor::TorBrowser;
use jsk_browser::browser::{Browser, BrowserConfig};
use jsk_browser::mediator::{LegacyMediator, Mediator};
use jsk_browser::profile::{BrowserProfile, Engine};
use jsk_core::config::KernelConfig;
use jsk_core::kernel::{JsKernel, KernelPlan};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Every browser/defense configuration the evaluation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DefenseKind {
    /// Unmodified Chrome.
    LegacyChrome,
    /// Unmodified Firefox.
    LegacyFirefox,
    /// Unmodified Edge.
    LegacyEdge,
    /// Fuzzyfox (a Firefox fork).
    Fuzzyfox,
    /// DeterFox (a Firefox fork).
    DeterFox,
    /// Tor Browser (a Firefox fork with a coarse clock and circuit latency).
    TorBrowser,
    /// Chrome Zero (a Chrome extension).
    ChromeZero,
    /// JSKernel on Chrome (the paper's extension; the Firefox/Edge
    /// extensions behave identically for timing, §IV).
    JsKernel,
    /// JSKernel installed on Firefox (Table III's Firefox column).
    JsKernelFirefox,
    /// JSKernel installed on Edge.
    JsKernelEdge,
    /// JSKernel with the attack-family hardening policies layered on top
    /// (`KernelConfig::hardened()`): the shipped kernel plus the
    /// Loophole self-post ban and the Hacky Racers ILP-counter ban. Not a
    /// Table I column — the paper evaluates the shipped configuration —
    /// but the fuzzer's oracle and the family regression tests run it.
    JsKernelHardened,
}

impl DefenseKind {
    /// The Table I evaluation columns, in the table's order (legacy
    /// browsers first, JSKernel last).
    #[must_use]
    pub fn table1_columns() -> Vec<DefenseKind> {
        vec![
            DefenseKind::LegacyChrome,
            DefenseKind::LegacyFirefox,
            DefenseKind::LegacyEdge,
            DefenseKind::Fuzzyfox,
            DefenseKind::DeterFox,
            DefenseKind::TorBrowser,
            DefenseKind::ChromeZero,
            DefenseKind::JsKernel,
        ]
    }

    /// Display name, matching the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DefenseKind::LegacyChrome => "Chrome",
            DefenseKind::LegacyFirefox => "Firefox",
            DefenseKind::LegacyEdge => "Edge",
            DefenseKind::Fuzzyfox => "Fuzzyfox",
            DefenseKind::DeterFox => "DeterFox",
            DefenseKind::TorBrowser => "Tor Browser",
            DefenseKind::ChromeZero => "Chrome Zero",
            DefenseKind::JsKernel => "JSKernel",
            DefenseKind::JsKernelFirefox => "JSKernel (F)",
            DefenseKind::JsKernelEdge => "JSKernel (E)",
            DefenseKind::JsKernelHardened => "JSKernel+",
        }
    }

    /// The engine this defense ships on.
    #[must_use]
    pub fn engine(self) -> Engine {
        match self {
            DefenseKind::LegacyChrome
            | DefenseKind::ChromeZero
            | DefenseKind::JsKernel
            | DefenseKind::JsKernelHardened => Engine::Chrome,
            DefenseKind::LegacyFirefox
            | DefenseKind::Fuzzyfox
            | DefenseKind::DeterFox
            | DefenseKind::TorBrowser
            | DefenseKind::JsKernelFirefox => Engine::Firefox,
            DefenseKind::LegacyEdge | DefenseKind::JsKernelEdge => Engine::Edge,
        }
    }

    /// Builds the mediator for this defense. Kernel defenses share one
    /// compiled [`KernelPlan`] per kernel configuration, compiled by the
    /// first call, so each later call builds only per-run kernel state.
    #[must_use]
    pub fn mediator(self) -> Box<dyn Mediator> {
        match self {
            DefenseKind::LegacyChrome | DefenseKind::LegacyFirefox | DefenseKind::LegacyEdge => {
                Box::new(LegacyMediator)
            }
            DefenseKind::Fuzzyfox => Box::new(Fuzzyfox::default()),
            DefenseKind::DeterFox => Box::new(DeterFox::default()),
            DefenseKind::TorBrowser => Box::new(TorBrowser::default()),
            DefenseKind::ChromeZero => Box::new(ChromeZero::default()),
            DefenseKind::JsKernel | DefenseKind::JsKernelFirefox | DefenseKind::JsKernelEdge => {
                static FULL: OnceLock<Arc<KernelPlan>> = OnceLock::new();
                Box::new(JsKernel::from_plan(shared_plan(&FULL, KernelConfig::full)))
            }
            DefenseKind::JsKernelHardened => {
                static HARDENED: OnceLock<Arc<KernelPlan>> = OnceLock::new();
                Box::new(JsKernel::from_plan(shared_plan(
                    &HARDENED,
                    KernelConfig::hardened,
                )))
            }
        }
    }

    /// The browser configuration for this defense at `seed`.
    #[must_use]
    pub fn config(self, seed: u64) -> BrowserConfig {
        let mut cfg = BrowserConfig::new(BrowserProfile::for_engine(self.engine()), seed);
        if self == DefenseKind::TorBrowser {
            cfg.net_latency_scale = TorBrowser::net_latency_scale();
            // Circuit latency also paces site workloads.
            cfg.profile.site_task_scale *= 6.0;
        }
        cfg
    }

    /// Builds a ready browser for this defense.
    #[must_use]
    pub fn build(self, seed: u64) -> Browser {
        Browser::new(self.config(seed), self.mediator())
    }

    /// Whether this configuration is one of the three unmodified browsers
    /// (the "Legacy Three" column of Table I).
    #[must_use]
    pub fn is_legacy(self) -> bool {
        matches!(
            self,
            DefenseKind::LegacyChrome | DefenseKind::LegacyFirefox | DefenseKind::LegacyEdge
        )
    }
}

/// The kernel plan held in `cell`, compiled from `config()` by the first
/// mediator that asks for it. Every later kernel of the defense shares it,
/// so a site pays only for its own kernel state.
fn shared_plan(cell: &OnceLock<Arc<KernelPlan>>, config: fn() -> KernelConfig) -> Arc<KernelPlan> {
    Arc::clone(cell.get_or_init(|| Arc::new(KernelPlan::new(config()))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_columns_build() {
        for kind in DefenseKind::table1_columns() {
            let b = kind.build(1);
            assert_eq!(b.profile().engine, kind.engine(), "{kind:?}");
        }
    }

    #[test]
    fn mediator_names_are_distinct_per_defense() {
        let names: Vec<String> = [
            DefenseKind::LegacyChrome,
            DefenseKind::Fuzzyfox,
            DefenseKind::DeterFox,
            DefenseKind::TorBrowser,
            DefenseKind::ChromeZero,
            DefenseKind::JsKernel,
        ]
        .iter()
        .map(|k| k.mediator().name().to_owned())
        .collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn tor_gets_circuit_latency() {
        let cfg = DefenseKind::TorBrowser.config(0);
        assert!(cfg.net_latency_scale > 5.0);
        let chrome = DefenseKind::LegacyChrome.config(0);
        assert_eq!(chrome.net_latency_scale, 1.0);
    }

    #[test]
    fn hardened_kernel_is_off_table_but_builds() {
        assert!(!DefenseKind::table1_columns().contains(&DefenseKind::JsKernelHardened));
        let b = DefenseKind::JsKernelHardened.build(1);
        assert_eq!(b.profile().engine, Engine::Chrome);
        assert_eq!(DefenseKind::JsKernelHardened.label(), "JSKernel+");
        assert!(!DefenseKind::JsKernelHardened.is_legacy());
    }

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(DefenseKind::JsKernel.label(), "JSKernel");
        assert_eq!(DefenseKind::TorBrowser.label(), "Tor Browser");
        assert!(DefenseKind::LegacyChrome.is_legacy());
        assert!(!DefenseKind::JsKernel.is_legacy());
    }
}
