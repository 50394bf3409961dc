//! Listing 1 of the paper: a worker's `postMessage` stream used as an
//! implicit clock to time an SVG filter whose cost depends on a secret
//! (the image's resolution).
//!
//! This is the program's one definition. Callers build the browser they
//! want to attack and hand it to [`run`]: the analysis corpus reads the
//! resulting trace, the chaos matrix and the fault suite read the tick
//! count, and `examples/implicit_clock_attack.rs` prints it.

use jsk_browser::browser::Browser;
use jsk_browser::task::{cb, worker_script};
use jsk_browser::value::JsValue;
use jsk_sim::time::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// The Listing 1 program's corpus name.
pub const LISTING1: &str = "listing-1";

/// Boots Listing 1 on `browser`, runs it for 400 virtual ms and returns
/// the number of worker ticks the adversary counted while a
/// `secret_px`-pixel SVG filter ran (`None` when the measurement never
/// completed).
///
/// `worker.js` posts a message every 1 ms and the main thread counts
/// them. 60 ms in, the main thread applies the filter between two
/// animation frames and records the count's growth as `"ticks"`.
pub fn run(browser: &mut Browser, secret_px: u64) -> Option<f64> {
    browser.boot(move |scope| {
        // worker.js: for (;;) postMessage(i) — a steady tick stream.
        let worker = scope.create_worker(
            "worker.js",
            worker_script(|scope| {
                scope.set_interval(
                    1.0,
                    cb(|scope, _| {
                        scope.post_message(JsValue::from(1.0));
                    }),
                );
            }),
        );
        let count = Rc::new(RefCell::new(0u64));
        let counter = count.clone();
        scope.set_worker_onmessage(
            worker,
            cb(move |_, _| {
                *counter.borrow_mut() += 1;
            }),
        );
        // Main script: measure the SVG filter between two animation frames.
        scope.set_timeout(
            60.0,
            cb(move |scope, _| {
                let count = count.clone();
                scope.request_animation_frame(cb(move |scope, _| {
                    let before = *count.borrow();
                    scope.apply_svg_filter(secret_px);
                    let count = count.clone();
                    scope.request_animation_frame(cb(move |scope, _| {
                        let ticks = *count.borrow() - before;
                        scope.record("ticks", JsValue::from(ticks as f64));
                    }));
                }));
            }),
        );
    });
    browser.run_for(SimDuration::from_millis(400));
    browser.record_value("ticks").and_then(JsValue::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::browser::BrowserConfig;
    use jsk_browser::mediator::{LegacyMediator, Mediator};
    use jsk_browser::profile::BrowserProfile;
    use jsk_core::{JsKernel, KernelConfig};

    fn ticks(mediator: Box<dyn Mediator>, seed: u64, secret_px: u64) -> f64 {
        let cfg = BrowserConfig::new(BrowserProfile::chrome(), seed);
        run(&mut Browser::new(cfg, mediator), secret_px).unwrap()
    }

    #[test]
    fn implicit_clock_distinguishes_secrets_on_legacy() {
        // Low- vs high-resolution filter must produce different tick
        // counts on at least some seeds — that's the attack working.
        let mut diffs = 0;
        for seed in 0..5 {
            let low = ticks(Box::new(LegacyMediator), seed, 64 * 64);
            let high = ticks(Box::new(LegacyMediator), 1000 + seed, 2048 * 2048);
            if (low - high).abs() >= 1.0 {
                diffs += 1;
            }
        }
        assert!(
            diffs >= 3,
            "legacy implicit clock should see the secret ({diffs}/5)"
        );
    }

    #[test]
    fn implicit_clock_is_deterministic_under_kernel() {
        // Under JSKernel the count is a constant: same for both secrets
        // and across seeds.
        let kernel = || Box::new(JsKernel::new(KernelConfig::full()));
        let mut counts = Vec::new();
        for seed in 0..4 {
            counts.push(ticks(kernel(), seed, 64 * 64));
            counts.push(ticks(kernel(), 100 + seed, 2048 * 2048));
        }
        let first = counts[0];
        assert!(
            counts.iter().all(|c| (*c - first).abs() < f64::EPSILON),
            "kernel tick counts must be identical: {counts:?}"
        );
    }
}
