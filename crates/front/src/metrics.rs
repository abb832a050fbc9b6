//! Front-end observability: the `p2h_front_*` families, published to the
//! process-wide [`p2h_obs`] registry (catalog in `docs/OBSERVABILITY.md`). Handles
//! are resolved once per server and shared by every thread.

use std::sync::Arc;

use p2h_obs::{Counter, Gauge, Histogram};

/// Cached instrument handles for one front-end server.
#[derive(Debug)]
pub(crate) struct FrontMetrics {
    /// Client connections accepted.
    pub connections: Arc<Counter>,
    /// Front queries admitted to the coalescing queue.
    pub requests: Arc<Counter>,
    /// Engine batches dispatched by the coalescer.
    pub batches: Arc<Counter>,
    /// Queries per dispatched batch.
    pub batch_size: Arc<Histogram>,
    /// Queries currently waiting in the coalescing queue.
    pub queue_depth: Arc<Gauge>,
    /// Nanoseconds a query waited in the queue before its batch dispatched.
    pub queue_wait_ns: Arc<Histogram>,
    /// Requests shed at admission (`reason="overloaded"`).
    pub shed_overloaded: Arc<Counter>,
    /// Requests shed because their deadline expired in the queue (`reason="deadline"`).
    pub shed_deadline: Arc<Counter>,
    /// Completed zero-downtime engine reloads.
    pub reloads: Arc<Counter>,
}

impl FrontMetrics {
    pub fn new() -> Self {
        let reg = p2h_obs::global();
        let shed = |reason: &str| {
            reg.counter(
                "p2h_front_shed_total",
                "Requests shed by admission control, by reason — typed errors, never drops.",
                &[("reason", reason)],
            )
        };
        Self {
            connections: reg.counter(
                "p2h_front_connections_total",
                "Client connections the front-end accepted.",
                &[],
            ),
            requests: reg.counter(
                "p2h_front_requests_total",
                "Front queries admitted to the coalescing queue.",
                &[],
            ),
            batches: reg.counter(
                "p2h_front_batches_total",
                "Engine batches the coalescer dispatched.",
                &[],
            ),
            batch_size: reg.histogram(
                "p2h_front_batch_size",
                "Queries coalesced into each dispatched batch.",
                &[],
            ),
            queue_depth: reg.gauge(
                "p2h_front_queue_depth",
                "Queries currently waiting in the coalescing queue.",
                &[],
            ),
            queue_wait_ns: reg.histogram(
                "p2h_front_queue_wait_ns",
                "Nanoseconds a query waited in the coalescing queue before dispatch.",
                &[],
            ),
            shed_overloaded: shed("overloaded"),
            shed_deadline: shed("deadline"),
            reloads: reg.counter(
                "p2h_front_reloads_total",
                "Zero-downtime engine reloads completed.",
                &[],
            ),
        }
    }
}
