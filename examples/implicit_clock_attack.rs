//! Listing 1, end to end: a worker's `postMessage` stream as an implicit
//! clock, measuring an SVG filter whose cost depends on a secret (the
//! image's resolution) — run against the undefended browser and against
//! JSKernel.
//!
//! ```sh
//! cargo run --example implicit_clock_attack
//! ```

use jskernel::attacks::listing1;
use jskernel::browser::mediator::LegacyMediator;
use jskernel::browser::{Browser, BrowserConfig, Mediator};
use jskernel::browser_profile::BrowserProfile;
use jskernel::{JsKernel, KernelConfig};

/// Runs the Listing 1 attack once; returns the number of worker ticks the
/// adversary counted while the secret-dependent filter ran.
fn run_attack(mediator: Box<dyn Mediator>, seed: u64, secret_px: u64) -> f64 {
    let mut browser = Browser::new(BrowserConfig::new(BrowserProfile::chrome(), seed), mediator);
    listing1::run(&mut browser, secret_px).expect("attack records its tick count")
}

fn main() {
    let low = 64 * 64; // the "small image" secret
    let high = 2048 * 2048; // the "large image" secret

    println!("Listing 1 — implicit clock via worker postMessage ticks\n");
    println!(
        "{:<28}{:>14}{:>14}",
        "defense", "low-res ticks", "high-res ticks"
    );

    for seed in 0..3 {
        let a = run_attack(Box::new(LegacyMediator), seed, low);
        let b = run_attack(Box::new(LegacyMediator), 100 + seed, high);
        println!("{:<28}{a:>14}{b:>14}", format!("legacy (seed {seed})"));
    }
    println!();
    for seed in 0..3 {
        let a = run_attack(Box::new(JsKernel::new(KernelConfig::full())), seed, low);
        let b = run_attack(
            Box::new(JsKernel::new(KernelConfig::full())),
            100 + seed,
            high,
        );
        println!("{:<28}{a:>14}{b:>14}", format!("jskernel (seed {seed})"));
    }

    println!(
        "\nOn the legacy browser the tick count tracks the filter's duration \
         — the adversary reads the secret. Under JSKernel the deterministic \
         scheduling policy (Listing 3) fixes the count: identical for both \
         secrets and across runs."
    );
}
