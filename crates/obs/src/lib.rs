//! Observability layer for the SSMDVFS workspace.
//!
//! The paper's premise is microsecond-scale *visibility* — per-epoch
//! counters drive every DVFS decision — and this crate gives the
//! reproduction the same visibility into itself. Three pillars, shared by
//! every other crate in the workspace:
//!
//! 1. **Metrics** ([`metrics`]) — a lock-cheap registry of named counters,
//!    gauges and log-scale histograms with a deterministic serde-JSON
//!    snapshot format (see `docs/observability.md`).
//! 2. **Tracing** ([`trace`]) — span-based tracing into per-thread ring
//!    buffers with a global drain, exported as Chrome `trace_event` JSON
//!    loadable in `chrome://tracing` or Perfetto, so datagen fan-out,
//!    training epochs and per-breakpoint replays render as a timeline.
//! 3. **Audit** ([`audit`]) — a bounded ring of per-epoch DVFS decision
//!    records (features, logits, presets, calibrator predicted-vs-actual)
//!    emitted by the governors and dumpable as JSONL.
//!
//! A leveled stderr [`log`] rounds it out, and four modules turn the
//! registry into a *live* telemetry plane:
//!
//! * [`export`] — an embedded zero-dependency HTTP exporter
//!   (`--serve-metrics`) serving `/metrics` in Prometheus text exposition
//!   format, `/metrics.json` (the deterministic snapshot, windowed rates
//!   with `?window=N`), and `/healthz`.
//! * [`series`] — a bounded time series sampling registry deltas on a
//!   fixed interval, so scrapes and `ssmdvfs watch` can show rates
//!   (epochs/s, cache hit ratio) rather than lifetime totals.
//! * [`prof`] — a scoped phase profiler aggregating wall time by call
//!   path, exported as a per-phase table and collapsed-stack
//!   (flamegraph-compatible) text.
//! * [`slo`] — declarative SLO rules (`ssmdvfs slo-check`) evaluated
//!   against perf trajectories, metrics snapshots and audit trails.
//!
//! # Overhead discipline
//!
//! Everything is off by default. Call sites guard on the global
//! [`enabled`] flag — a single relaxed atomic load — before any
//! formatting, allocation or clock read, so instrumentation compiles to
//! near-nothing in an untraced run. The [`span!`], [`counter!`],
//! [`gauge!`] and [`histogram!`] macros build that guard (and a cached
//! registry lookup) into the call site.
//!
//! # Examples
//!
//! ```
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span!("demo", "fib(20)");
//!     obs::counter!("demo.calls").inc(1);
//! }
//! let snapshot = obs::metrics::global().snapshot();
//! assert_eq!(snapshot.counters.get("demo.calls"), Some(&1));
//! let json = obs::trace::chrome_trace_json();
//! assert!(json.contains("\"traceEvents\""));
//! # obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod export;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod ring;
pub mod series;
pub mod slo;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use audit::{summarize, AuditRecord, AuditSummary, AuditTrail};
pub use ring::Ring;

/// The global observability switch, off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording and span tracing on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether observability is globally enabled. Call sites check this before
/// doing any formatting or allocation; it is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a [`trace::Span`] without paying for name formatting when
/// observability is disabled.
///
/// The first argument is the category (a `&'static str`), the rest is a
/// `format!` string for the span name — evaluated only when [`enabled`]
/// returns `true`.
#[macro_export]
macro_rules! span {
    ($cat:expr, $($fmt:tt)+) => {
        if $crate::enabled() {
            $crate::trace::span(format!($($fmt)+), $cat)
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Resolves a named counter in the global registry once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Counter>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::metrics::global().counter($name)).as_ref()
    }};
}

/// Resolves a named gauge in the global registry once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Gauge>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::metrics::global().gauge($name)).as_ref()
    }};
}

/// Resolves a named histogram in the global registry once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Histogram>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::metrics::global().histogram($name)).as_ref()
    }};
}
