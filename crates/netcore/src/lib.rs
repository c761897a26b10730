//! `panacea-netcore`: the readiness-driven connection core.
//!
//! A std-only C10K-capable server substrate: one [`Reactor`] thread
//! multiplexes every connection over `poll(2)` (via the vendored
//! [`sys_poll`] shim) and feeds complete request lines to a fixed set of
//! dispatch threads it runs itself, and each connection is a small state
//! machine — bounded line reassembly on the read side
//! ([`LineAssembler`]), a backpressured write queue with slow-consumer
//! eviction on the write side. Memory and thread count scale with
//! configured bounds (`max_connections`, `workers`), not with the number
//! of open sockets.
//!
//! The transport is deliberately protocol-agnostic: a [`Service`] turns
//! request lines into response lines and hears about connection
//! lifecycle and stage timings. The gateway layers its JSON protocol and
//! telemetry on top.

mod counters;
mod line;
mod reactor;

pub use counters::{ConnectionCounters, ConnectionStats};
pub use line::{LineAssembler, LineError, DEFAULT_MAX_LINE_BYTES};
pub use reactor::{ConnStage, EvictReason, Reactor, ReactorConfig, Service};
