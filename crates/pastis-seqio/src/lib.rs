//! Sequence I/O substrate for PASTIS-RS.
//!
//! PASTIS reads one FASTA file with parallel MPI-IO, holds the encoded
//! sequences in memory, and writes the similarity graph as triplets; its
//! 405-million-sequence input is the Metaclust non-redundant protein set.
//! This crate supplies the equivalents:
//!
//! * [`fasta`] — a robust FASTA reader/writer and the in-memory
//!   [`SeqStore`] the pipeline works from.
//! * [`alphabet`] — reduced amino-acid alphabets (Murphy-10, Dayhoff-6),
//!   the sensitivity option from Section V of the paper (its reference
//!   [15]).
//! * [`synth`] — a synthetic protein-family generator standing in for
//!   Metaclust: log-normal sequence lengths, families derived from common
//!   ancestors at controlled divergence, plus singletons. It reproduces
//!   the statistical properties the evaluation depends on (variable
//!   lengths, sparse clustered similarity, quadratic candidate growth)
//!   with planted ground truth for sensitivity measurements.

#![warn(missing_docs)]

pub mod alphabet;
pub mod fasta;
pub mod qstream;
pub mod synth;

pub use alphabet::ReducedAlphabet;
pub use fasta::{FastaError, FastaRecord, FastaStream, SeqStore};
pub use qstream::QueryBatchReader;
pub use synth::{SyntheticConfig, SyntheticDataset};
