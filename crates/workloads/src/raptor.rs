//! The Raptor tp6-1 loading test (§V-A3, Table III).
//!
//! Raptor measures page loading with a *hero element*: some modern sites
//! keep loading after `onload` via JavaScript, and the hero element's
//! appearance captures that. Each subtest is loaded repeatedly and the
//! first result is skipped ("due to the involvement of opening a tab" — in
//! our model, the first visit pays the cold HTTP cache).

use crate::site::{load_result, load_site, SiteProfile};
use jsk_browser::browser::Browser;
use jsk_sim::stats::Summary;
use serde::{Deserialize, Serialize};

/// The tp6-1 subtests.
pub const TP6_SITES: [&str; 4] = ["amazon", "facebook", "google", "youtube"];

/// Mean ± std of one subtest's hero times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaptorRow {
    /// Site name.
    pub site: String,
    /// Mean hero time in ms.
    pub mean_ms: f64,
    /// Standard deviation in ms.
    pub std_ms: f64,
}

/// Runs one subtest `repeats` times (skipping the first) under the given
/// defense constructor and returns the hero-time summary.
pub fn run_subtest(
    site: &str,
    repeats: usize,
    make_browser: impl FnMut(u64) -> Browser,
) -> RaptorRow {
    run_subtest_observed(site, repeats, make_browser, &mut |_| {})
}

/// Like [`run_subtest`], but calls `observe` on every loaded browser so
/// callers can harvest per-run kernel statistics (the first, skipped load
/// is observed too — its work is still simulated work).
pub fn run_subtest_observed(
    site: &str,
    repeats: usize,
    mut make_browser: impl FnMut(u64) -> Browser,
    observe: &mut dyn FnMut(&Browser),
) -> RaptorRow {
    let profile = SiteProfile::named(site);
    let mut times = Vec::new();
    for i in 0..repeats {
        let mut browser = make_browser(1_000 + i as u64);
        load_site(&mut browser, &profile);
        observe(&browser);
        let hero = load_result(&browser, &profile)
            .expect("site load records hero time")
            .hero_ms;
        if i > 0 {
            times.push(hero);
        }
    }
    let s = Summary::of(&times);
    RaptorRow {
        site: site.to_owned(),
        mean_ms: s.mean,
        std_ms: s.std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::browser::BrowserConfig;
    use jsk_browser::mediator::LegacyMediator;
    use jsk_browser::profile::BrowserProfile;

    fn chrome_row(site: &str) -> RaptorRow {
        run_subtest(site, 6, |seed| {
            Browser::new(
                BrowserConfig::new(BrowserProfile::chrome(), seed),
                Box::new(LegacyMediator),
            )
        })
    }

    #[test]
    fn chrome_means_track_table3_ordering() {
        let google = chrome_row("google");
        let amazon = chrome_row("amazon");
        let youtube = chrome_row("youtube");
        assert!(google.mean_ms < amazon.mean_ms);
        assert!(amazon.mean_ms < youtube.mean_ms);
        // Table III Chrome: google 48.3, amazon 107.2, youtube 298.9 —
        // require the right decade, not the exact value.
        assert!((30.0..90.0).contains(&google.mean_ms), "{}", google.mean_ms);
        assert!(
            (70.0..180.0).contains(&amazon.mean_ms),
            "{}",
            amazon.mean_ms
        );
        assert!(
            (200.0..450.0).contains(&youtube.mean_ms),
            "{}",
            youtube.mean_ms
        );
    }

    #[test]
    fn firefox_is_several_times_slower() {
        let chrome = chrome_row("google");
        let firefox = run_subtest("google", 6, |seed| {
            Browser::new(
                BrowserConfig::new(BrowserProfile::firefox(), seed),
                Box::new(LegacyMediator),
            )
        });
        assert!(
            firefox.mean_ms > chrome.mean_ms * 3.0,
            "chrome {} vs firefox {}",
            chrome.mean_ms,
            firefox.mean_ms
        );
    }

    #[test]
    fn std_is_finite_and_small_relative_to_mean() {
        let row = chrome_row("amazon");
        assert!(row.std_ms >= 0.0);
        assert!(row.std_ms < row.mean_ms);
    }
}
