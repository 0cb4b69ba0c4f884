//! Component time breakdowns and imbalance statistics.
//!
//! Section VII of the paper ("How performance was measured") describes three
//! reporting mechanisms: component timers, alignments/second, and cell
//! updates/second, with load imbalance captured as the minimum / average /
//! maximum per-process time in a component. This module is the Rust
//! counterpart: [`TimeBreakdown`] accumulates per-rank time by
//! [`Component`], and [`ImbalanceStats`] condenses a per-rank metric into
//! the min/avg/max triples plotted in Figure 7.

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::communicator::{Communicator, ReduceOp};

// The component taxonomy and imbalance summaries moved to `pastis-trace`
// (shared with the telemetry layer's span categories); re-exported here so
// existing `pastis_comm::{Component, ImbalanceStats}` paths keep working.
pub use pastis_trace::{Component, ImbalanceStats};

/// Seconds spent per [`Component`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeBreakdown {
    secs: [f64; 6],
}

impl TimeBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> TimeBreakdown {
        TimeBreakdown::default()
    }

    /// Seconds recorded for `c`.
    pub fn get(&self, c: Component) -> f64 {
        self.secs[c.index()]
    }

    /// Add `dt` seconds to component `c`.
    pub fn record(&mut self, c: Component, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time increment");
        self.secs[c.index()] += dt;
    }

    /// Total seconds across all components.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// The paper's "sparse (all)" aggregate: SpGEMM plus other sparse work.
    pub fn sparse_all(&self) -> f64 {
        self.get(Component::SpGemm) + self.get(Component::SparseOther)
    }

    /// Component-wise maximum (the bulk-synchronous combine across ranks:
    /// the slowest rank defines the step time per component).
    pub fn max_combine(&self, other: &TimeBreakdown) -> TimeBreakdown {
        let mut out = *self;
        for i in 0..out.secs.len() {
            out.secs[i] = out.secs[i].max(other.secs[i]);
        }
        out
    }

    /// Elementwise **max** all-reduce of this rank's breakdown across
    /// `comm`: every rank receives, per component, the slowest rank's time
    /// (the bulk-synchronous view of where the critical path went).
    pub fn all_reduce_max<C: Communicator>(&self, comm: &C) -> TimeBreakdown {
        self.all_reduce(comm, ReduceOp::Max)
    }

    /// Elementwise **sum** all-reduce of this rank's breakdown across
    /// `comm`: every rank receives, per component, the total CPU-seconds
    /// spent machine-wide (the resource-usage view).
    pub fn all_reduce_sum<C: Communicator>(&self, comm: &C) -> TimeBreakdown {
        self.all_reduce(comm, ReduceOp::Sum)
    }

    fn all_reduce<C: Communicator>(&self, comm: &C, op: ReduceOp) -> TimeBreakdown {
        let reduced = comm.all_reduce_f64(&self.secs, op);
        let mut out = TimeBreakdown::new();
        out.secs.copy_from_slice(&reduced);
        out
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;
    fn add(mut self, rhs: TimeBreakdown) -> TimeBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        for i in 0..self.secs.len() {
            self.secs[i] += rhs.secs[i];
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in Component::ALL {
            let v = self.get(c);
            if v > 0.0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}={:.3}s", c.label(), v)?;
                first = false;
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = TimeBreakdown::new();
        b.record(Component::Align, 2.0);
        b.record(Component::SpGemm, 1.0);
        b.record(Component::SparseOther, 0.5);
        assert_eq!(b.get(Component::Align), 2.0);
        assert_eq!(b.sparse_all(), 1.5);
        assert_eq!(b.total(), 3.5);
    }

    #[test]
    fn breakdown_add_and_max_combine() {
        let mut a = TimeBreakdown::new();
        a.record(Component::Align, 1.0);
        let mut b = TimeBreakdown::new();
        b.record(Component::Align, 3.0);
        b.record(Component::Io, 2.0);
        let sum = a + b;
        assert_eq!(sum.get(Component::Align), 4.0);
        assert_eq!(sum.get(Component::Io), 2.0);
        let mx = a.max_combine(&b);
        assert_eq!(mx.get(Component::Align), 3.0);
        assert_eq!(mx.get(Component::Io), 2.0);
    }

    #[test]
    fn breakdown_all_reduce_across_threaded_ranks() {
        let results = crate::threaded::run_threaded(3, |comm| {
            let mut b = TimeBreakdown::new();
            // Rank r spent r+1 seconds aligning and 0.5 s in IO.
            b.record(Component::Align, (comm.rank() + 1) as f64);
            b.record(Component::Io, 0.5);
            (b.all_reduce_max(comm), b.all_reduce_sum(comm))
        });
        for (mx, sum) in results {
            assert_eq!(mx.get(Component::Align), 3.0);
            assert_eq!(mx.get(Component::Io), 0.5);
            assert_eq!(sum.get(Component::Align), 6.0);
            assert_eq!(sum.get(Component::Io), 1.5);
            assert_eq!(sum.get(Component::SpGemm), 0.0);
        }
    }

    #[test]
    fn display_formats() {
        let mut b = TimeBreakdown::new();
        b.record(Component::Align, 1.25);
        let s = format!("{b}");
        assert!(s.contains("align=1.250s"));
        assert_eq!(format!("{}", TimeBreakdown::new()), "(empty)");
    }
}
