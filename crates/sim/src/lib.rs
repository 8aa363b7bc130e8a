//! # dima-sim — a synchronous message-passing network simulator
//!
//! The paper's model of computation (§I-C) makes exactly two assumptions:
//!
//! 1. communication rounds proceed **synchronously**, and
//! 2. each node can communicate with each of its neighbors once per round,
//!    **reliably**.
//!
//! This crate implements that model. Each vertex of a graph becomes a
//! compute node running a [`Protocol`] — a state machine that is handed
//! its inbox once per communication round and fills an outbox.
//!
//! There is one run path:
//!
//! * [`run`] runs a protocol to quiescence; [`run_with`] adds a churn
//!   schedule and a telemetry tracer. With an empty schedule and the
//!   default [`telemetry::NoopTracer`], `run_with` *is* `run`: every
//!   tracing branch folds away at monomorphization.
//! * [`EngineStepper`] is the same loop one round per call, for hosts
//!   that interleave rounds with other work (`dima serve`).
//! * [`EngineConfig::engine`] picks the [`Engine`] that executes it:
//!   the deterministic single-threaded reference engine
//!   ([`stepper`]), or the sharded pool engine ([`par`]: one participant
//!   per shard of nodes, lockstep barriers between rounds). The two are
//!   **bit-identical** — all randomness is drawn from per-node RNGs
//!   seeded only by `(master seed, node id)` and inboxes are delivered in
//!   sender order — down to the telemetry event stream.
//!
//! Around that loop: [`stats`] counts rounds, sends and deliveries — the
//! quantities the paper's figures report. [`fault`] injects
//! deterministic message loss, duplication, corruption and crashes to
//! show that the algorithms' safety depends on the reliable-delivery
//! assumption, and [`reliable`] wraps a protocol in an ARQ layer that
//! restores it. [`wire`] provides a compact binary envelope encoding for
//! protocols that want to measure bytes on the wire rather than message
//! counts. [`churn`] compiles deterministic topology-mutation schedules
//! (`LinkUp` / `LinkDown` / `NodeJoin` / `NodeLeave`) that both engines
//! apply mid-run, so protocols can repair their state incrementally
//! instead of restarting. The telemetry plane ([`dima_telemetry`],
//! re-exported as [`telemetry`]) turns a run into structured per-round
//! events; its `StateTimeline` sink folds them into per-round automata
//! state censuses.

#![deny(missing_docs)]
// Unsafe is denied crate-wide; the two modules that implement the
// parallel engine's lock-free message plane ([`pool`] and [`par`])
// opt back in locally, each with a module-level safety argument.
#![deny(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod error;
pub mod fault;
pub mod par;
pub mod pool;
pub mod protocol;
pub mod reliable;
pub mod rng;
pub mod stats;
pub mod stepper;
pub mod topology;
pub mod wire;

#[cfg(test)]
mod plane_proptests;

pub use dima_telemetry as telemetry;

pub use churn::{
    ChurnBatch, ChurnEvent, ChurnKinds, ChurnPlan, ChurnSchedule, EventFeed, FeedError,
    NeighborhoodChange,
};
pub use engine::{run, run_with, Engine, EngineConfig, EngineStepper, RunOutcome};
pub use error::SimError;
pub use protocol::{Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Shared};
pub use reliable::{ArqConfig, ArqMsg, ReliableNode};
pub use stats::{RoundStats, RunStats};
pub use topology::Topology;
