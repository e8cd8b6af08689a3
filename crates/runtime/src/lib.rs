//! # esr-runtime — thread-per-site concurrent runtime
//!
//! The replica control methods of [`esr_replica`] running on real OS
//! threads. [`ctrl`] holds the pure control plane ([`NodeCore`]) that
//! every substrate here runs: the thread [`Cluster`] (one thread per
//! site executing its core's effects over crossbeam channels, an atomic
//! global sequencer for ORDUP, an atomic version clock for RITU, site 0
//! coordinating completion, VTNC certification and COMPE decisions),
//! the `esrd` [`Daemon`] over TCP, and the `esr-check` model. The
//! paper's repro hint calls for "async replicas"; this runtime provides
//! exactly that with the crates available in this workspace (threads +
//! channels instead of an async executor — the protocol state machines
//! are identical).
//!
//! The [`chaos`] module adds a seeded fault-injection transport
//! (drops, duplicates, partition windows, durable at-least-once link
//! queues) and [`recovery`] the write-ahead journal behind
//! [`Cluster::crash`] / [`Cluster::restart`] and daemon restarts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod ckpt;
pub mod client;
pub mod cluster;
pub mod ctrl;
pub mod daemon;
pub mod proc_cluster;
pub mod recovery;
pub mod spans;
pub mod state;

pub use chaos::{render_trace, ChaosStats, FaultPlan, TraceEvent};
pub use ckpt::{decode_payload, encode_payload, CkptPayload};
pub use client::RpcClient;
pub use cluster::{Cluster, QuiesceTimeout, RtCanary};
pub use ctrl::{CoordCore, CtrlCanary, Effect, NodeCore, NodeEvent};
pub use daemon::{Daemon, DaemonConfig};
pub use proc_cluster::ProcCluster;
pub use recovery::ApplyJournal;
pub use spans::{
    critical_path, merge_timeline, render_timeline, RawSpan, SiteSpan, SpanRing, SPAN_QUERY_ALL,
};
pub use state::{RtMethod, SiteAudit, SiteState};
