//! Process-global instrumentation counters for the device-model hot
//! path.
//!
//! The tabulation layer ([`crate::tabulate`]) exists to cut the number
//! of analytic EKV evaluations per Monte-Carlo die; these counters make
//! that claim measurable. Every analytic [`crate::delay::GateTiming`]
//! delay and [`crate::energy::energy_per_cycle`] call bumps a counter,
//! as does every interpolated table hit, exact-eval fallback, table
//! build and memo-cache hit.
//!
//! The counters are process-global relaxed atomics: they never affect
//! results (the determinism contract is untouched), they only observe.
//! `cargo test` runs many tests in one process, so unit tests assert on
//! *deltas* being at least the expected count rather than exact values;
//! exact zero-analytic assertions live in a dedicated single-test
//! integration binary.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static ANALYTIC_DELAY_EVALS: AtomicU64 = AtomicU64::new(0);
static ANALYTIC_ENERGY_EVALS: AtomicU64 = AtomicU64::new(0);
static INTERP_DELAY_HITS: AtomicU64 = AtomicU64::new(0);
static INTERP_ENERGY_HITS: AtomicU64 = AtomicU64::new(0);
static EXACT_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static TABLE_BUILDS: AtomicU64 = AtomicU64::new(0);
static TABLE_BUILD_NANOS: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn record_analytic_delay() {
    ANALYTIC_DELAY_EVALS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` analytic delay evaluations in one atomic bump — the
/// lane kernels price a whole batch of dies per call and must keep the
/// analytic/tabulated query totals comparable with the scalar path.
#[inline]
pub(crate) fn record_analytic_delays(n: u64) {
    ANALYTIC_DELAY_EVALS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_analytic_energy() {
    ANALYTIC_ENERGY_EVALS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` analytic energy evaluations in one atomic bump (the
/// per-die-supply energy kernel prices a whole lane per call).
#[inline]
pub(crate) fn record_analytic_energies(n: u64) {
    ANALYTIC_ENERGY_EVALS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_interp_delay_hit() {
    INTERP_DELAY_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` interpolation-served delay queries in one atomic bump —
/// the fused pair query answers two gate kinds per interpolation and
/// sits on the Monte-Carlo hot path.
#[inline]
pub(crate) fn record_interp_delay_hits(n: u64) {
    INTERP_DELAY_HITS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_interp_energy_hit() {
    INTERP_ENERGY_HITS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_exact_fallback() {
    EXACT_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_table_build(nanos: u64) {
    TABLE_BUILDS.fetch_add(1, Ordering::Relaxed);
    TABLE_BUILD_NANOS.fetch_add(nanos, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_cache_hit() {
    CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` memo hits in one atomic bump (a memoized lane query).
#[inline]
pub(crate) fn record_cache_hits(n: u64) {
    CACHE_HITS.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time copy of every device-model counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Analytic gate-delay evaluations (each costs two EKV currents).
    pub analytic_delay_evals: u64,
    /// Analytic energy-breakdown evaluations (each also performs one
    /// analytic gate delay internally, which double-counts above —
    /// intentionally, since both really ran).
    pub analytic_energy_evals: u64,
    /// Delay queries answered from an interpolated surface.
    pub interp_delay_hits: u64,
    /// Energy queries answered from an interpolated surface.
    pub interp_energy_hits: u64,
    /// Queries outside the tabulated grid that fell back to the exact
    /// analytic model.
    pub exact_fallbacks: u64,
    /// Number of surface-grid builds.
    pub table_builds: u64,
    /// Total wall time spent building surface grids, in nanoseconds.
    pub table_build_nanos: u64,
    /// Memoized per-die cache hits ([`crate::tabulate::CachedEval`]).
    pub cache_hits: u64,
}

impl MetricsSnapshot {
    /// Reads the current counter values.
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            analytic_delay_evals: ANALYTIC_DELAY_EVALS.load(Ordering::Relaxed),
            analytic_energy_evals: ANALYTIC_ENERGY_EVALS.load(Ordering::Relaxed),
            interp_delay_hits: INTERP_DELAY_HITS.load(Ordering::Relaxed),
            interp_energy_hits: INTERP_ENERGY_HITS.load(Ordering::Relaxed),
            exact_fallbacks: EXACT_FALLBACKS.load(Ordering::Relaxed),
            table_builds: TABLE_BUILDS.load(Ordering::Relaxed),
            table_build_nanos: TABLE_BUILD_NANOS.load(Ordering::Relaxed),
            cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (for single-process tools that want
    /// to report per-phase numbers).
    pub fn reset() {
        ANALYTIC_DELAY_EVALS.store(0, Ordering::Relaxed);
        ANALYTIC_ENERGY_EVALS.store(0, Ordering::Relaxed);
        INTERP_DELAY_HITS.store(0, Ordering::Relaxed);
        INTERP_ENERGY_HITS.store(0, Ordering::Relaxed);
        EXACT_FALLBACKS.store(0, Ordering::Relaxed);
        TABLE_BUILDS.store(0, Ordering::Relaxed);
        TABLE_BUILD_NANOS.store(0, Ordering::Relaxed);
        CACHE_HITS.store(0, Ordering::Relaxed);
    }

    /// Counter-wise difference against an earlier snapshot.
    ///
    /// Saturates at zero so a concurrent `reset` cannot produce a
    /// bogus huge delta.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            analytic_delay_evals: self
                .analytic_delay_evals
                .saturating_sub(earlier.analytic_delay_evals),
            analytic_energy_evals: self
                .analytic_energy_evals
                .saturating_sub(earlier.analytic_energy_evals),
            interp_delay_hits: self
                .interp_delay_hits
                .saturating_sub(earlier.interp_delay_hits),
            interp_energy_hits: self
                .interp_energy_hits
                .saturating_sub(earlier.interp_energy_hits),
            exact_fallbacks: self.exact_fallbacks.saturating_sub(earlier.exact_fallbacks),
            table_builds: self.table_builds.saturating_sub(earlier.table_builds),
            table_build_nanos: self
                .table_build_nanos
                .saturating_sub(earlier.table_build_nanos),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }

    /// Total analytic model evaluations (delay + energy).
    pub fn analytic_evals(&self) -> u64 {
        self.analytic_delay_evals + self.analytic_energy_evals
    }

    /// Total interpolated table hits (delay + energy).
    pub fn interp_hits(&self) -> u64 {
        self.interp_delay_hits + self.interp_energy_hits
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analytic evals {} (delay {}, energy {}) · interp hits {} \
             (delay {}, energy {}) · exact fallbacks {} · cache hits {} · \
             table builds {} ({:.1} ms)",
            self.analytic_evals(),
            self.analytic_delay_evals,
            self.analytic_energy_evals,
            self.interp_hits(),
            self.interp_delay_hits,
            self.interp_energy_hits,
            self.exact_fallbacks,
            self.cache_hits,
            self.table_builds,
            self.table_build_nanos as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let before = MetricsSnapshot::snapshot();
        record_analytic_delay();
        record_analytic_energy();
        record_interp_delay_hit();
        record_interp_energy_hit();
        record_exact_fallback();
        record_cache_hit();
        record_table_build(1_000);
        let delta = MetricsSnapshot::snapshot().since(&before);
        // Other tests in this process may bump the counters too, so
        // assert on at-least deltas.
        assert!(delta.analytic_delay_evals >= 1);
        assert!(delta.analytic_energy_evals >= 1);
        assert!(delta.interp_delay_hits >= 1);
        assert!(delta.interp_energy_hits >= 1);
        assert!(delta.exact_fallbacks >= 1);
        assert!(delta.cache_hits >= 1);
        assert!(delta.table_builds >= 1);
        assert!(delta.table_build_nanos >= 1_000);
        assert!(delta.analytic_evals() >= 2);
        assert!(delta.interp_hits() >= 2);
    }

    #[test]
    fn display_names_every_counter_family() {
        let s = format!("{}", MetricsSnapshot::snapshot());
        assert!(s.contains("analytic evals"), "{s}");
        assert!(s.contains("interp hits"), "{s}");
        assert!(s.contains("fallbacks"), "{s}");
        assert!(s.contains("table builds"), "{s}");
    }
}
