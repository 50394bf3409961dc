//! # jsk-core — JSKernel
//!
//! The paper's primary contribution: a kernel-like structure interposed
//! between website JavaScript ("user space") and the browser, enforcing the
//! execution order of JavaScript events and threads to defend against **web
//! concurrency attacks** — attacks triggered by a specific invocation
//! sequence of JavaScript built-ins across threads.
//!
//! The kernel has the paper's four components (§III-A): kernel objects
//! ([`equeue::KernelEventQueue`], [`kclock::KernelClock`]), a scheduler
//! ([`scheduler`]), a dispatcher (inside [`kernel::JsKernel`]), and a
//! thread manager ([`threads::ThreadManager`]) — plus the kernel interface
//! model ([`interface`]), the kernel-space communication overlay
//! ([`comm`]), and JSON-representable security policies ([`policy`]):
//! the general deterministic scheduling policy (Listing 3) and the twelve
//! manually-specified per-CVE policies (Listing 4, §IV-B).
//!
//! # Examples
//!
//! Installing the kernel into a simulated browser:
//!
//! ```
//! use jsk_browser::browser::{Browser, BrowserConfig};
//! use jsk_browser::profile::BrowserProfile;
//! use jsk_core::{config::KernelConfig, kernel::JsKernel};
//!
//! let cfg = BrowserConfig::new(BrowserProfile::chrome(), 1);
//! let kernel = JsKernel::new(KernelConfig::full());
//! let mut browser = Browser::new(cfg, Box::new(kernel));
//! browser.boot(|scope| {
//!     let t = scope.performance_now();
//!     scope.record("kernel_clock_ms", jsk_browser::value::JsValue::from(t));
//! });
//! browser.run_until_idle();
//! assert!(browser.record_value("kernel_clock_ms").is_some());
//! ```

#![deny(missing_docs)]

pub mod check;
pub mod comm;
pub mod config;
pub mod equeue;
pub mod interface;
pub mod kclock;
pub mod kernel;
pub mod kevent;
pub mod policy;
pub mod scheduler;
pub mod stats;
pub mod threads;

pub use config::KernelConfig;
pub use kernel::JsKernel;
pub use policy::{deterministic_policy, policy_from_json_or_default, PolicySpec};
