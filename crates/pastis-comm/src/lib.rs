//! Message-passing substrate for PASTIS-RS.
//!
//! PASTIS (SC'22) runs as an SPMD MPI program on up to 3364 Summit nodes.
//! This crate provides the equivalent substrate for the Rust reproduction:
//!
//! * [`Communicator`] — an MPI-like SPMD interface (rank/size, point-to-point
//!   messages, and the collectives PASTIS relies on: broadcast, gather,
//!   all-gather, all-to-allv, reductions, barrier, and communicator splits).
//! * [`ThreadedComm`] — a real shared-memory implementation that runs `p`
//!   ranks as OS threads and actually moves data between them. It is used to
//!   validate the *determinism* claim of the paper: PASTIS produces identical
//!   results irrespective of the process count and blocking factors.
//! * [`SelfComm`] — the `p = 1` fast path.
//! * [`ProcessGrid`] — the 2D `√p × √p` grid used by Sparse SUMMA, with row
//!   and column sub-communicators.
//! * [`costmodel`] — the latency–bandwidth (α–β) communication model used by
//!   the paper's own analysis (Section VI-A), plus machine presets (Summit)
//!   so that experiments can be replayed at node counts far beyond the host.
//! * [`vclock`] — per-rank virtual clocks with component breakdowns
//!   (alignment / sparse / IO / communication-wait), the measurement
//!   mechanism described in Section VII of the paper.
//!
//! # Example
//!
//! ```
//! use pastis_comm::{run_threaded, Communicator};
//!
//! // Run a 4-rank SPMD section; every rank contributes its rank id and the
//! // all-gather returns the same vector on every rank.
//! let results = run_threaded(4, |comm| comm.all_gather(comm.rank() as u64));
//! for r in &results {
//!     assert_eq!(r, &vec![0, 1, 2, 3]);
//! }
//! ```

#![warn(missing_docs)]

pub mod communicator;
pub mod costmodel;
pub mod fault;
pub mod grid;
pub mod local;
pub mod threaded;
pub mod traced;
pub mod vclock;

pub use communicator::{CommError, CommStats, Communicator, ReduceOp};
pub use costmodel::{AlphaBeta, CollectiveAlgo, MachineModel};
pub use fault::{
    CrashFault, FaultPlan, FaultStats, FaultStatsSnapshot, FaultyComm, FaultyStore, StallFault,
    StoreFaultStats, StoreFaultStatsSnapshot,
};
pub use grid::ProcessGrid;
pub use local::SelfComm;
pub use threaded::{run_threaded, run_threaded_with, CommConfig, ThreadedComm};
pub use traced::TracedComm;
pub use vclock::{Component, ImbalanceStats, TimeBreakdown};
