//! Typed event outputs: what the monitors and the flow's overload ladder
//! report. Every payload is O(1); Fig. 1's output columns (O(1) events,
//! O(|V|) and O(|V|^k) lists) are annotations of the taxonomy rows
//! (`ga_core::taxonomy::OutputCol`).

use ga_graph::{Timestamp, VertexId};

/// What a streaming monitor observed.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A pair metric crossed a threshold (O(1) payload).
    PairThreshold {
        /// Metric name.
        metric: &'static str,
        /// First vertex.
        a: VertexId,
        /// Second vertex.
        b: VertexId,
        /// The observed value.
        value: f64,
    },
    /// A global scalar was (re)computed (global-value payload).
    GlobalValue {
        /// Metric name.
        metric: &'static str,
        /// Current value.
        value: f64,
    },
    /// Admission control shed or evicted updates under overload (O(1)
    /// payload) — the explicit backpressure signal for the external
    /// system feeding the stream.
    LoadShed {
        /// Priority class of the lost updates ("high"/"normal"/"bulk").
        class: &'static str,
        /// Updates lost by this decision.
        updates: usize,
        /// Queue depth (in updates) when the decision was made.
        queue_depth: usize,
    },
    /// The flow engine moved on its degradation ladder (O(1) payload).
    Degraded {
        /// Ladder level before the move.
        from: &'static str,
        /// Ladder level after the move (may be less degraded — recovery
        /// is reported the same way).
        to: &'static str,
        /// Queue depth (in updates) driving the decision.
        queue_depth: usize,
    },
    /// A durability circuit breaker changed state (O(1) payload).
    CircuitBreaker {
        /// The protected site ("durability").
        site: &'static str,
        /// True when the breaker tripped open (writes suspended), false
        /// when it was reset.
        open: bool,
    },
}

/// A timestamped event emitted by a monitor.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Stream time at emission.
    pub time: Timestamp,
    /// Emitting monitor's name.
    pub source: &'static str,
    /// Payload.
    pub kind: EventKind,
}
