//! PASTIS-RS core: many-against-many protein similarity search via
//! distributed sparse matrices.
//!
//! This crate is the Rust reproduction of the primary contribution of
//! *"Extreme-scale many-against-many protein similarity search"* (SC'22):
//! the PASTIS pipeline with its three innovations —
//!
//! 1. **Blocked 2D Sparse SUMMA** (Section VI-A): the overlap matrix
//!    `C = A·Aᵀ` (A = sequences × k-mers) is formed in `br × bc` blocks so
//!    the search runs incrementally under a memory budget
//!    ([`pipeline`], on top of [`pastis_sparse::BlockedSumma`]).
//! 2. **Symmetry-aware load balancing** (Section VI-B): the
//!    triangularity-based scheme (skip avoidable blocks, keep the strict
//!    upper triangle) and the index-based scheme (parity pruning that
//!    preserves the uniform nonzero distribution) — [`loadbalance`].
//! 3. **Pre-blocking** (Section VI-C): the SpGEMM discovering block `i+1`
//!    runs concurrently with the alignment of block `i`, hiding the
//!    memory-bound sparse phase behind the compute-bound alignment phase —
//!    [`pipeline`] (real overlapped execution) and [`perfmodel`] (modeled).
//!
//! The pipeline runs on two planes sharing all of this code:
//!
//! * the **functional plane** ([`pipeline::run_search`]) really executes
//!   the distributed program over a [`pastis_comm::Communicator`] — used to
//!   demonstrate that results are identical for any process count,
//!   blocking factor, and load-balancing scheme;
//! * the **performance plane** ([`perfmodel`]) replays the same block
//!   schedule with exact per-rank work counts and an α–β machine model, so
//!   the paper's scaling experiments (Figures 5–9, Tables I–IV) can be
//!   regenerated at Summit node counts on one host.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod distcc;
pub mod filter;
pub mod index;
pub mod kmer;
pub mod loadbalance;
pub mod mcl;
pub mod membudget;
pub mod overlap;
pub mod params;
pub mod perfmodel;
pub mod pipeline;
pub mod serve;
pub mod simgraph;
pub mod stats;
pub mod straggler;
pub mod subkmers;

pub use checkpoint::{
    run_fingerprint, Checkpoint, IndexShard, SpillShard, CHECKPOINT_SCHEMA_VERSION,
    SPILL_SCHEMA_VERSION,
};
pub use distcc::distributed_components;
pub use filter::EdgeFilter;
pub use index::{
    build_index, index_fingerprint, store_digest, IndexBuildConfig, IndexBuildReport,
    IndexManifest, PersistedIndex, INDEX_MANIFEST_SCHEMA_VERSION,
};
pub use kmer::kmer_matrix_triples;
pub use loadbalance::{BlockClass, BlockPlan, BlockTask, LoadBalance};
pub use mcl::{mcl, MclParams, MclResult};
pub use membudget::{BudgetExceeded, MemBudget};
pub use overlap::{CommonKmers, OverlapSemiring};
pub use params::SearchParams;
pub use perfmodel::{blocking_for_budget, simulate, simulate_traced, ScaleConfig, ScaleReport};
pub use pipeline::{run_search, run_search_traced, SearchResult};
pub use serve::{
    serve_queries, serve_queries_traced, AdmissionBatcher, BatcherConfig, ResultCache, ServeConfig,
    ServeHit, ServeOutcome, ServeStats,
};
pub use simgraph::{SimilarityEdge, SimilarityGraph};
pub use stats::SearchStats;
pub use straggler::{detect_stragglers, StragglerReport};
