//! The wire front door over the shard pool: JSKernel as a service.
//!
//! `jsk-shard` (PR 6) proved per-site kernel shards can serve a fleet
//! under supervision, admission control, and cross-shard faults — but
//! only for in-process `SiteJob` submission. This crate is step 2 of the
//! serving story: a long-running [`Server`] that accepts **event
//! schedules over a wire protocol** and feeds the exact same `SiteJob`
//! seam, so the wire adds framing, backpressure, and observability while
//! the results stay a pure function of `(jobs, fault plan)`. The
//! corpus-diff test (`tests/wire_corpus.rs`) pins that claim byte for
//! byte.
//!
//! * [`protocol`] — length-prefixed NDJSON frames and the typed
//!   request/response vocabulary (`docs/PROTOCOL.md` is the spec).
//! * [`job`] — wire submissions to `SiteJob`s: policy-name resolution,
//!   admission validation, the purity contract.
//! * [`session`] — the per-connection state machine: `hello` handshake,
//!   bounded submission queue with `shed` backpressure, `flush` through
//!   the pool, per-request virtual deadlines, cancellation, drain.
//! * [`server`] — shared state: the pool, the drain lifecycle, cumulative
//!   site metrics and `serve.*` wire counters, the `/metrics` text page.
//! * [`transport`] — [`LoopbackTransport`] (deterministic, in-process;
//!   what CI runs) and [`TcpTransport`]/[`TcpServer`] (`std::net`,
//!   served by a pool of long-lived connection workers).
//! * [`client`] — a typed client over either transport.
//!
//! # Quickstart
//!
//! ```
//! use jsk_serve::{Client, LoopbackTransport, Server, ServerConfig, Submission};
//!
//! let server = Server::new(ServerConfig::new(2, 2));
//! let transport = LoopbackTransport::new(server.clone());
//! let mut client = Client::connect(&transport).unwrap();
//! let schedule = jsk_workloads::schedule::corpus_schedules().remove(1);
//! client
//!     .submit(&Submission {
//!         site: schedule.name.clone(),
//!         seed: 7,
//!         policy: "kernel".into(),
//!         schedule,
//!         deadline_ms: 0,
//!     })
//!     .unwrap();
//! let results = client.flush().unwrap();
//! assert_eq!(results.len(), 2); // one verdict + the flush_ok summary
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;
pub mod session;
pub mod transport;

pub use client::Client;
pub use job::{policy_kind, submission_job, Submission};
pub use protocol::{Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, WireStats};
pub use session::Session;
pub use transport::{LoopbackTransport, TcpServer, TcpTransport, Transport};
