//! `reach-serve` — a concurrent reachability query service.
//!
//! The paper's deployment model (§II-A) ends at "ship the finished DRL
//! index to a query machine"; this crate is that query machine. It serves
//! an immutable, [`Arc`](std::sync::Arc)-shared [`reach_index::ReachIndex`]
//! to many concurrent clients:
//!
//! * **One serving path** — the served index is any
//!   [`reach_index::IndexSource`] (a decoded `ReachIndex`, a compressed
//!   image, or an mmap-backed file), shared read-only by every worker.
//!   A query `q(s, t)` is one sorted merge of `L_out(s)` and `L_in(t)`,
//!   answered by worker `s mod workers`; the split spreads a large batch
//!   over the workers without any cross-worker hop.
//! * **Batching & admission control** — queries are submitted in batches
//!   ([`QueryService::submit_batch`]) with an optional per-batch deadline.
//!   Each worker has a bounded request queue; a full queue rejects the
//!   batch with [`ServeError::Overloaded`] at admission time and an
//!   expired deadline yields [`ServeError::DeadlineExceeded`] — never a
//!   silent drop or a panic. Results come back in submission order
//!   regardless of which worker answered what, so answers are
//!   bit-identical to direct [`reach_index::ReachIndex::query`] calls at
//!   any worker count. Counters are visible through
//!   [`QueryService::stats`] and, with the `obs` feature, through the
//!   `serve.*` metrics (see `docs/OBSERVABILITY.md`).
//! * **Hot-swap** — [`QueryService::swap_source`] (and
//!   [`QueryService::swap_index`]) installs a new index behind a
//!   generation-tagged slot ([`swap::Swappable`]) without draining
//!   in-flight work or copying labels: every batch pins exactly one
//!   generation at first worker pickup and is answered entirely by it,
//!   and [`BatchTicket::wait_tagged`] reports which generation answered.
//!   The differential harness in [`testing`] (driven by
//!   `tests/hot_swap.rs` and the `swap_bench` load harness) pins the
//!   no-torn-batches guarantee against `ReachIndex::query`.
//!
//! * **Resilience & chaos mode** — with [`ResilienceConfig`] set, workers
//!   run supervised: heartbeats, crash detection, exactly-once requeue of
//!   a dead worker's in-flight work, and respawn ([`supervisor`]). A
//!   seeded [`ServeFaultPlan`] ([`fault`]) deterministically injects
//!   worker crashes, stalls, slow shards, and swap-install failures;
//!   [`RetryPolicy`] ([`retry`]) adds client-side retries with seeded
//!   jittered exponential backoff under a per-call deadline *budget*; and
//!   [`DegradeConfig`] sheds work by [`Priority`]
//!   tier under sustained overload. All of it is opt-in: the default
//!   configuration runs the exact pre-chaos code path. The differential
//!   chaos harness is [`testing::run_chaos_consistency`];
//!   `docs/RESILIENCE.md` has the full model.
//!
//! The load harnesses live in `crates/bench/src/bin/serve_bench.rs`,
//! `crates/bench/src/bin/swap_bench.rs`, and
//! `crates/bench/src/bin/chaos_bench.rs`; the deterministic query mixes
//! they drive are in `reach_datasets::workload`.

#![warn(missing_docs)]

pub mod fault;
pub mod retry;
pub mod service;
pub mod supervisor;
pub mod swap;
pub mod testing;

pub use fault::ServeFaultPlan;
pub use retry::RetryPolicy;
pub use service::{
    BatchOptions, BatchTicket, DegradeConfig, Priority, QueryService, ServeConfig, ServeStats,
};
pub use supervisor::{ResilienceConfig, SupervisorConfig};
pub use swap::{Swappable, Tagged};

use reach_graph::VertexId;

/// Typed rejection reasons of the query service.
///
/// Every failure mode of submission and completion is represented here;
/// the service never silently drops a request and never panics on bad
/// input or overload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue of a worker was full at admission time —
    /// the service is over capacity and sheds load instead of queueing
    /// unboundedly.
    Overloaded {
        /// The worker whose queue rejected the batch.
        shard: usize,
        /// The per-worker queue capacity (sub-batches) that was exhausted.
        capacity: usize,
    },
    /// The batch's deadline expired before all of its results were
    /// computed (checked at admission and again when a worker picks the
    /// batch up).
    DeadlineExceeded,
    /// A query named a vertex the index does not cover.
    InvalidVertex {
        /// The offending vertex id.
        vertex: VertexId,
        /// The number of vertices the served index covers.
        num_vertices: usize,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// A degradation tier shed the batch under sustained overload (see
    /// [`service::DegradeConfig`]). The batch was never enqueued; retrying
    /// after backoff is appropriate.
    Degraded {
        /// The tier that shed the batch.
        tier: DegradeTier,
    },
    /// A [`QueryService::try_swap_index`] install was failed by fault
    /// injection before anything was installed — the previous generation
    /// keeps serving untouched.
    SwapFailed {
        /// The generation still being served after the failed install.
        generation: u64,
    },
}

/// The degradation tier that shed a batch (carried by
/// [`ServeError::Degraded`]). Tiers escalate with queue pressure and
/// disengage with hysteresis; see [`service::DegradeConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeTier {
    /// Tier 1: [`Priority::Low`] work is shed.
    SheddingLow,
    /// Tier 2: [`Priority::Normal`] work is shed as well; only
    /// [`Priority::High`] work reaches the workers.
    SheddingNormal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { shard, capacity } => {
                write!(
                    f,
                    "overloaded: shard {shard} queue full (capacity {capacity})"
                )
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::InvalidVertex {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "invalid vertex {vertex}: index covers {num_vertices} vertices"
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Degraded { tier } => {
                let mode = match tier {
                    DegradeTier::SheddingLow => "shedding low-priority work",
                    DegradeTier::SheddingNormal => "shedding normal-priority work",
                };
                write!(f, "degraded under overload: {mode}")
            }
            ServeError::SwapFailed { generation } => {
                write!(
                    f,
                    "swap install failed; generation {generation} keeps serving"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e = ServeError::Overloaded {
            shard: 2,
            capacity: 8,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let e = ServeError::InvalidVertex {
            vertex: 9,
            num_vertices: 4,
        };
        assert!(e.to_string().contains("vertex 9"));
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        let e = ServeError::Degraded {
            tier: DegradeTier::SheddingNormal,
        };
        assert!(e.to_string().contains("normal-priority"));
        let e = ServeError::SwapFailed { generation: 3 };
        assert!(e.to_string().contains("generation 3"));
    }
}
