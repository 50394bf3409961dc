//! # jsk-sim — discrete-event simulation substrate
//!
//! Foundations for the JSKernel reproduction: a virtual timeline
//! ([`time::SimTime`]), a cancellable time-ordered event queue
//! ([`queue::TimeQueue`]), seeded reproducible randomness ([`rng::SimRng`]),
//! strongly-typed ids ([`ids`]), the id-keyed tables every layer above
//! shares ([`fasthash`], [`token_table`]), and the statistics used by
//! attack verdicts and evaluation harnesses ([`stats`]).
//!
//! The browser substrate (`jsk-browser`) builds its event loops on these
//! primitives; everything above it (defenses, the JSKernel itself, attacks,
//! workloads) inherits exact reproducibility: a simulation run is a pure
//! function of its seed.
//!
//! # Examples
//!
//! ```
//! use jsk_sim::queue::TimeQueue;
//! use jsk_sim::time::{SimDuration, SimTime};
//!
//! // A miniature event loop: pop events in virtual-time order.
//! let mut queue = TimeQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(4), "timer fired");
//! queue.push(SimTime::ZERO + SimDuration::from_millis(1), "message arrived");
//!
//! let first = queue.pop().expect("two events scheduled");
//! assert_eq!(first.value, "message arrived");
//! ```

pub mod fasthash;
pub mod fault;
pub mod ids;
pub mod knob;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod token_table;

pub use fault::{
    ClockSkew, ConfirmFate, FaultInjector, FaultPlan, FaultPlanError, FaultStats, MessageFate,
    NetFate, ShardCrash, ShardPartition,
};
pub use knob::{env_knob, parse_knob};
pub use queue::{Popped, QueueKey, TimeQueue};
pub use rng::SimRng;
pub use stats::{cosine_similarity, distinguishable, Distinguishability, Summary};
pub use time::{SimDuration, SimTime};
