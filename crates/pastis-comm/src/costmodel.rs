//! Latency–bandwidth (α–β) communication cost model and machine presets.
//!
//! Section VI-A of the paper analyzes the Blocked 2D Sparse SUMMA with the
//! classic α–β model and tree-algorithm collectives (their reference [23]):
//!
//! * plain SUMMA: `2α√p·log√p + 2βs√p·log√p`
//! * blocked variant: `2α(br·bc)√p·log√p + βs(br+bc)√p·log√p`
//!
//! where `s` is the nonzero payload of one `n/√p × n/√p` sub-matrix. This
//! module provides those formulas verbatim ([`AlphaBeta::summa_cost`],
//! [`AlphaBeta::blocked_summa_cost`]), generic collective costs used by the
//! performance-model plane, and [`MachineModel`] presets that translate
//! exact operation counts (DP cells, semiring products, bytes) into seconds.
//!
//! The Summit preset is calibrated so the *ratios* the paper reports emerge
//! (align:sparse ≈ 2:1 on the node, IO < 3%, cwait ≪ 1%); absolute seconds
//! are explicitly not a reproduction target — see EXPERIMENTS.md.

use serde::{Deserialize, Serialize};

/// Latency–bandwidth parameters of a network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBeta {
    /// Message startup latency α, in seconds.
    pub alpha: f64,
    /// Per-byte transfer time β, in seconds/byte (1 / bandwidth).
    pub beta: f64,
}

/// Which algorithm a collective is assumed to use when costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Binomial/binary tree (the paper's assumption for broadcasts).
    Tree,
    /// Flat sequential sends (worst case, used for sanity bounds).
    Flat,
}

fn log2_ceil(g: usize) -> f64 {
    if g <= 1 {
        0.0
    } else {
        (g as f64).log2().ceil()
    }
}

impl AlphaBeta {
    /// Create a model from latency (seconds) and bandwidth (bytes/second).
    pub fn from_latency_bandwidth(latency_s: f64, bandwidth_bps: f64) -> AlphaBeta {
        assert!(latency_s >= 0.0 && bandwidth_bps > 0.0);
        AlphaBeta {
            alpha: latency_s,
            beta: 1.0 / bandwidth_bps,
        }
    }

    /// Cost of a point-to-point message of `nbytes`.
    pub fn ptp(&self, nbytes: f64) -> f64 {
        self.alpha + self.beta * nbytes
    }

    /// Cost of broadcasting `nbytes` within a group of `g` ranks.
    pub fn broadcast(&self, nbytes: f64, g: usize, algo: CollectiveAlgo) -> f64 {
        match algo {
            CollectiveAlgo::Tree => log2_ceil(g) * (self.alpha + self.beta * nbytes),
            CollectiveAlgo::Flat => (g.saturating_sub(1)) as f64 * self.ptp(nbytes),
        }
    }

    /// Cost of an all-gather where each of `g` ranks contributes `nbytes`
    /// (recursive doubling).
    pub fn all_gather(&self, nbytes: f64, g: usize) -> f64 {
        if g <= 1 {
            return 0.0;
        }
        log2_ceil(g) * self.alpha + self.beta * nbytes * (g as f64 - 1.0)
    }

    /// Cost of a personalized all-to-all where this rank exchanges
    /// `total_bytes` in aggregate with `g - 1` peers (pairwise exchange).
    pub fn all_to_allv(&self, total_bytes: f64, g: usize) -> f64 {
        if g <= 1 {
            return 0.0;
        }
        (g as f64 - 1.0) * self.alpha + self.beta * total_bytes
    }

    /// Cost of an all-reduce of `nbytes` over `g` ranks
    /// (reduce-then-broadcast tree bound).
    pub fn all_reduce(&self, nbytes: f64, g: usize) -> f64 {
        2.0 * log2_ceil(g) * (self.alpha + self.beta * nbytes)
    }

    /// Communication cost of plain 2D Sparse SUMMA over `p` ranks where one
    /// sub-matrix carries `s_bytes` of payload: `2α√p·log√p + 2βs√p·log√p`
    /// (Section VI-A).
    pub fn summa_cost(&self, p: usize, s_bytes: f64) -> f64 {
        let sqrt_p = (p as f64).sqrt();
        let lg = log2_ceil(sqrt_p.round() as usize);
        2.0 * self.alpha * sqrt_p * lg + 2.0 * self.beta * s_bytes * sqrt_p * lg
    }

    /// Communication cost of the Blocked 2D Sparse SUMMA with row/column
    /// blocking factors `br × bc`:
    /// `2α(br·bc)√p·log√p + βs(br+bc)√p·log√p` (Section VI-A).
    ///
    /// With `br = bc = 1` this reduces to [`AlphaBeta::summa_cost`].
    pub fn blocked_summa_cost(&self, p: usize, s_bytes: f64, br: usize, bc: usize) -> f64 {
        assert!(br >= 1 && bc >= 1, "blocking factors must be positive");
        let sqrt_p = (p as f64).sqrt();
        let lg = log2_ceil(sqrt_p.round() as usize);
        2.0 * self.alpha * (br * bc) as f64 * sqrt_p * lg
            + self.beta * s_bytes * (br + bc) as f64 * sqrt_p * lg
    }
}

/// Per-node compute / IO rates plus the interconnect, translating exact
/// operation counts into modeled seconds.
///
/// The performance-model plane of PASTIS-RS partitions the *real* dataset
/// over `p` virtual ranks, counts each rank's DP cells, semiring products,
/// merged nonzeros and communicated bytes exactly, and converts them to time
/// through one of these models. The scaling *shape* therefore comes from the
/// true partitioned workload; only the unit conversion is synthetic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable preset name.
    pub name: String,
    /// Inter-node network.
    pub net: AlphaBeta,
    /// Collective algorithm assumption.
    pub algo: CollectiveAlgo,
    /// GPUs per node (Summit: 6 V100).
    pub gpus_per_node: usize,
    /// Sustained giga-cell-updates/second per GPU for batched
    /// Smith–Waterman (ADEPT-like kernel).
    pub gcups_per_gpu: f64,
    /// Fixed driver/packing overhead per alignment, seconds (host-side
    /// batching, transfers; amortized per pair).
    pub align_overhead_per_pair: f64,
    /// Parallel efficiency of each *additional* intra-rank alignment
    /// worker (the ADEPT-driver-analog pool): `t` workers deliver a
    /// `1 + (t-1)·e` speedup. Below 1 because workers share memory
    /// bandwidth and pay chunk-claim synchronization.
    pub align_pool_efficiency: f64,
    /// Parallel efficiency of each *additional* intra-rank SpGEMM worker
    /// (the row-partitioned Gustavson pool): `t` workers deliver a
    /// `1 + (t-1)·e` speedup on the product term. Lower than the
    /// alignment pool's efficiency — SpGEMM is memory-bound (hash-table
    /// probes, irregular B-row gathers), so extra workers contend for
    /// bandwidth sooner. Placeholder pending multi-core measurement by
    /// `pastis-bench`'s `kernel_spgemm` harness (the container this model
    /// was authored on exposes a single core).
    pub spgemm_pool_efficiency: f64,
    /// Single-thread speedup of the score-only vector kernel over the
    /// scalar kernel on this machine's CPUs (the SIMD lane factor;
    /// measured by `pastis-bench`'s `kernel_simd` harness). Multiplies
    /// the whole pool term in [`MachineModel::align_speedup`] — lanes and
    /// workers compose. `1.0` for machines whose alignment runs on GPUs
    /// (the lanes only accelerate the CPU path).
    pub simd_lane_speedup: f64,
    /// Fixed per-batch overhead, seconds: kernel launches, packing and
    /// device round-trips paid once per alignment batch (one batch per
    /// output block per node). Smaller batches utilize the GPUs worse —
    /// this is why Figure 5's alignment time grows 10–15% with the block
    /// count. Absolute (not rescaled by [`MachineModel::scaled`]).
    pub align_batch_overhead_s: f64,
    /// Semiring multiply-add products per second per node for the local
    /// hash-SpGEMM (all CPU cores of a node).
    pub spgemm_products_per_sec: f64,
    /// Nonzeros merged per second per node in SpAdd / output accumulation.
    pub merge_nnz_per_sec: f64,
    /// Input-stripe nonzeros traversed per second per node when a SUMMA
    /// stage walks its received sub-matrices (streaming CSR scans — much
    /// faster than the random-access merge above). This cost repeats per
    /// output block and carries the block-count growth of the sparse phase.
    pub stripe_nnz_per_sec: f64,
    /// Host-side handling cost per received point-to-point message,
    /// seconds (matching, unpacking). Each rank receives one sequence
    /// slice per peer, so this term grows with the node count — the reason
    /// the paper's cwait share rises in Table II. Absolute (not rescaled).
    pub p2p_handling_s: f64,
    /// Residues processed per second per node for k-mer matrix formation.
    pub kmer_residues_per_sec: f64,
    /// Per-node parallel filesystem bandwidth, bytes/second.
    pub io_bw_per_node: f64,
    /// Aggregate filesystem bandwidth cap across all nodes, bytes/second
    /// (GPFS saturates; this is why the paper's IO% creeps up with node
    /// count in Table II).
    pub io_bw_global_cap: f64,
    /// CPU cores per node (42 usable on Summit).
    pub cores_per_node: usize,
}

impl MachineModel {
    /// Summit (OLCF) preset: IBM AC922 nodes, 2×22-core POWER9, 6×V100,
    /// dual-rail EDR InfiniBand fat tree, GPFS (Alpine).
    ///
    /// Calibration notes:
    /// * peak alignment rate in the paper's production run is 176.3 TCUPs
    ///   over 20,184 GPUs ⇒ ≈ 8.7 GCUPS/GPU; sustained throughput is lower
    ///   due to batching/transfer overheads, captured by
    ///   `align_overhead_per_pair`.
    /// * the paper observes align:sparse node-time ratio of at most ≈ 2:1
    ///   (Section VI-C); `spgemm_products_per_sec` is set so synthetic
    ///   workloads land in that regime.
    pub fn summit() -> MachineModel {
        MachineModel {
            name: "summit".to_owned(),
            net: AlphaBeta::from_latency_bandwidth(1.5e-6, 23.0e9),
            algo: CollectiveAlgo::Tree,
            gpus_per_node: 6,
            gcups_per_gpu: 8.7,
            align_overhead_per_pair: 2.0e-7,
            align_pool_efficiency: 0.85,
            spgemm_pool_efficiency: 0.75,
            // Alignment runs on the V100s; CPU lanes don't enter.
            simd_lane_speedup: 1.0,
            align_batch_overhead_s: 2.0,
            spgemm_products_per_sec: 2.0e8,
            merge_nnz_per_sec: 6.0e8,
            stripe_nnz_per_sec: 1.2e10,
            p2p_handling_s: 2.0e-3,
            kmer_residues_per_sec: 2.0e9,
            io_bw_per_node: 4.0e9,
            // GPFS contention saturates the aggregate long before the
            // per-node sum (~120 nodes' worth) — this saturation is why
            // Table II's IO share *rises* with node count.
            io_bw_global_cap: 4.8e11,
            cores_per_node: 42,
        }
    }

    /// A deliberately modest commodity-cluster preset (used to show the
    /// DIAMOND-style baseline in its intended habitat).
    pub fn commodity() -> MachineModel {
        MachineModel {
            name: "commodity".to_owned(),
            net: AlphaBeta::from_latency_bandwidth(20.0e-6, 1.2e9),
            algo: CollectiveAlgo::Tree,
            gpus_per_node: 0,
            gcups_per_gpu: 0.0,
            align_overhead_per_pair: 5.0e-7,
            align_pool_efficiency: 0.80,
            spgemm_pool_efficiency: 0.70,
            // Measured by `kernel_simd` when the score-only lanes landed:
            // the runtime-selected backend (AVX2, 16 × i16 lanes) vs the
            // serial scalar kernel, one thread, 4000 pairs: 9.19×. The
            // current per-kernel figures (score-only and the default
            // full-statistics lanes) are in results/kernel_simd.txt.
            simd_lane_speedup: 9.19,
            align_batch_overhead_s: 2.0,
            spgemm_products_per_sec: 1.0e8,
            merge_nnz_per_sec: 3.0e8,
            stripe_nnz_per_sec: 6.0e9,
            p2p_handling_s: 2.0e-3,
            kmer_residues_per_sec: 1.0e9,
            io_bw_per_node: 2.0e8,
            io_bw_global_cap: 5.0e10,
            cores_per_node: 32,
        }
    }

    /// A rescaled machine for miniature datasets: every *compute* and
    /// *filesystem* throughput is multiplied by `f`; the network is kept
    /// absolute. Rationale: miniature inputs shrink alignment work (pairs ×
    /// length²) by orders of magnitude more than broadcast volume (k-mer
    /// matrix nonzeros), so scaling bandwidth with compute would inflate
    /// communication far past its real share — on Summit the SUMMA β-term
    /// is ≈1% of the sparse phase (48.8G k-mer nonzeros × 12 B × (br+bc)/√p
    /// × log√p at 23 GB/s ≈ 10² s vs the 2.2 h sparse phase of Table IV).
    /// The block-count growth of the sparse phase is instead carried by the
    /// stripe-handling compute term, which scales with the rates.
    pub fn scaled(&self, f: f64) -> MachineModel {
        assert!(f > 0.0, "scale factor must be positive");
        MachineModel {
            name: format!("{}-x{f:.3e}", self.name),
            gcups_per_gpu: self.gcups_per_gpu * f,
            // Host-side per-pair driver overhead slows down with the rest
            // of the machine, keeping its share of alignment time (~17% on
            // real Summit) constant across scales.
            align_overhead_per_pair: self.align_overhead_per_pair / f,
            spgemm_products_per_sec: self.spgemm_products_per_sec * f,
            merge_nnz_per_sec: self.merge_nnz_per_sec * f,
            stripe_nnz_per_sec: self.stripe_nnz_per_sec * f,
            kmer_residues_per_sec: self.kmer_residues_per_sec * f,
            io_bw_per_node: self.io_bw_per_node * f,
            io_bw_global_cap: self.io_bw_global_cap * f,
            ..self.clone()
        }
    }

    /// Aggregate alignment rate of one node in cell updates per second.
    ///
    /// CPU-only machines (gpus_per_node = 0) fall back to a vectorized
    /// CPU-SW rate of 0.5 GCUPS/core (SeqAn-class striped SW).
    pub fn node_cups(&self) -> f64 {
        if self.gpus_per_node == 0 {
            0.5e9 * self.cores_per_node as f64
        } else {
            self.gcups_per_gpu * 1.0e9 * self.gpus_per_node as f64
        }
    }

    /// Modeled time for one node to align a batch totalling `cells` DP cell
    /// updates across `pairs` pairwise alignments.
    pub fn align_time(&self, cells: f64, pairs: f64) -> f64 {
        cells / self.node_cups() + pairs * self.align_overhead_per_pair
    }

    /// Speedup of the intra-rank alignment pool at `threads` workers
    /// (0 ⇒ one worker per core):
    /// `simd_lane_speedup · (1 + (t-1)·align_pool_efficiency)` — the SIMD
    /// lane factor applies per worker, so it multiplies the whole affine
    /// pool term.
    pub fn align_speedup(&self, threads: usize) -> f64 {
        let t = if threads == 0 {
            self.cores_per_node
        } else {
            threads
        };
        self.simd_lane_speedup * (1.0 + t.saturating_sub(1) as f64 * self.align_pool_efficiency)
    }

    /// [`align_time`](MachineModel::align_time) with the batch executed on
    /// an intra-rank pool of `threads` workers. The driver overhead
    /// parallelizes with the kernel: chunks are claimed and packed by the
    /// worker that runs them.
    pub fn align_time_parallel(&self, cells: f64, pairs: f64, threads: usize) -> f64 {
        self.align_time(cells, pairs) / self.align_speedup(threads)
    }

    /// Modeled time for one node to execute a local SpGEMM performing
    /// `products` semiring multiply-adds and merging `merged_nnz` outputs.
    pub fn spgemm_time(&self, products: f64, merged_nnz: f64) -> f64 {
        products / self.spgemm_products_per_sec + merged_nnz / self.merge_nnz_per_sec
    }

    /// Speedup of the intra-rank SpGEMM pool at `threads` workers
    /// (0 ⇒ one worker per core): `1 + (t-1)·spgemm_pool_efficiency`.
    pub fn spgemm_speedup(&self, threads: usize) -> f64 {
        let t = if threads == 0 {
            self.cores_per_node
        } else {
            threads
        };
        1.0 + t.saturating_sub(1) as f64 * self.spgemm_pool_efficiency
    }

    /// [`spgemm_time`](MachineModel::spgemm_time) with the row chunks
    /// executed on an intra-rank pool of `threads` workers. Only the
    /// product term parallelizes — the stage-accumulation merge
    /// (`merged_nnz`) stays on the calling thread, mirroring the real
    /// kernel where stitching and `spadd_into` are serial.
    pub fn spgemm_time_parallel(&self, products: f64, merged_nnz: f64, threads: usize) -> f64 {
        products / self.spgemm_products_per_sec / self.spgemm_speedup(threads)
            + merged_nnz / self.merge_nnz_per_sec
    }

    /// Modeled time for `nodes` nodes to collectively read or write
    /// `total_bytes` through the parallel filesystem.
    pub fn io_time(&self, total_bytes: f64, nodes: usize) -> f64 {
        let bw = (nodes as f64 * self.io_bw_per_node).min(self.io_bw_global_cap);
        total_bytes / bw
    }

    /// Modeled cost of broadcasting `nbytes` in a group of `g` nodes.
    pub fn broadcast_time(&self, nbytes: f64, g: usize) -> f64 {
        self.net.broadcast(nbytes, g, self.algo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> AlphaBeta {
        AlphaBeta::from_latency_bandwidth(1.0e-6, 1.0e9)
    }

    #[test]
    fn ptp_is_alpha_plus_beta() {
        let m = net();
        let t = m.ptp(1.0e9);
        assert!((t - (1.0e-6 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn tree_broadcast_scales_logarithmically() {
        let m = net();
        let t4 = m.broadcast(1000.0, 4, CollectiveAlgo::Tree);
        let t16 = m.broadcast(1000.0, 16, CollectiveAlgo::Tree);
        assert!((t16 / t4 - 2.0).abs() < 1e-9, "log2(16)/log2(4) = 2");
    }

    #[test]
    fn flat_broadcast_scales_linearly() {
        let m = net();
        let t2 = m.broadcast(1000.0, 2, CollectiveAlgo::Flat);
        let t5 = m.broadcast(1000.0, 5, CollectiveAlgo::Flat);
        assert!((t5 / t2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn trivial_groups_cost_nothing_extra() {
        let m = net();
        assert_eq!(m.broadcast(1e6, 1, CollectiveAlgo::Tree), 0.0);
        assert_eq!(m.all_gather(1e6, 1), 0.0);
        assert_eq!(m.all_to_allv(1e6, 1), 0.0);
    }

    #[test]
    fn blocked_summa_reduces_to_plain_at_1x1() {
        let m = net();
        for p in [4usize, 16, 64, 400] {
            let s = 3.5e7;
            let plain = m.summa_cost(p, s);
            let blocked = m.blocked_summa_cost(p, s, 1, 1);
            assert!(
                (plain - blocked).abs() < 1e-9 * plain.max(1.0),
                "p={p}: {plain} vs {blocked}"
            );
        }
    }

    #[test]
    fn blocking_increases_latency_term_quadratically() {
        // With β = 0 the cost is pure latency and must scale as br·bc.
        let m = AlphaBeta {
            alpha: 1.0e-6,
            beta: 0.0,
        };
        let c1 = m.blocked_summa_cost(16, 1e6, 1, 1);
        let c4 = m.blocked_summa_cost(16, 1e6, 2, 2);
        assert!((c4 / c1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn blocking_increases_bandwidth_term_linearly() {
        // With α = 0 the cost is pure bandwidth and must scale as (br+bc)/2.
        let m = AlphaBeta {
            alpha: 0.0,
            beta: 1.0e-9,
        };
        let c1 = m.blocked_summa_cost(16, 1e6, 1, 1);
        let c4 = m.blocked_summa_cost(16, 1e6, 4, 4);
        assert!((c4 / c1 - 4.0).abs() < 1e-9, "(4+4)/(1+1) = 4");
    }

    #[test]
    fn summit_preset_is_plausible() {
        let s = MachineModel::summit();
        assert_eq!(s.gpus_per_node, 6);
        // 6 GPUs × 8.7 GCUPS
        assert!((s.node_cups() - 52.2e9).abs() < 1e6);
        // IO saturates: 10,000 nodes can't exceed the global cap.
        let t_big = s.io_time(1.0e12, 10_000);
        let t_cap = 1.0e12 / s.io_bw_global_cap;
        assert!((t_big - t_cap).abs() < 1e-12);
    }

    #[test]
    fn align_time_includes_per_pair_overhead() {
        let s = MachineModel::summit();
        let kernel_only = s.align_time(1.0e9, 0.0);
        let with_pairs = s.align_time(1.0e9, 1.0e6);
        assert!(with_pairs > kernel_only);
    }

    #[test]
    fn align_pool_speedup_is_affine_in_workers() {
        let s = MachineModel::summit();
        assert_eq!(s.align_speedup(1), 1.0);
        assert!((s.align_speedup(4) - (1.0 + 3.0 * 0.85)).abs() < 1e-12);
        // 0 means one worker per core.
        assert_eq!(s.align_speedup(0), s.align_speedup(s.cores_per_node));
        // One worker is exactly the serial model.
        assert_eq!(s.align_time_parallel(1e9, 1e5, 1), s.align_time(1e9, 1e5));
        // t workers divide the serial time by the speedup.
        let serial = s.align_time(1e9, 1e5);
        let t8 = s.align_time_parallel(1e9, 1e5, 8);
        assert!((t8 - serial / s.align_speedup(8)).abs() < 1e-12);
    }

    #[test]
    fn spgemm_pool_speedup_parallelizes_products_only() {
        let s = MachineModel::summit();
        assert_eq!(s.spgemm_speedup(1), 1.0);
        assert!((s.spgemm_speedup(4) - (1.0 + 3.0 * s.spgemm_pool_efficiency)).abs() < 1e-12);
        // 0 means one worker per core.
        assert_eq!(s.spgemm_speedup(0), s.spgemm_speedup(s.cores_per_node));
        // One worker is exactly the serial model.
        assert_eq!(s.spgemm_time_parallel(1e9, 1e7, 1), s.spgemm_time(1e9, 1e7));
        // t workers divide only the product term; the merge term (the
        // serial stitch + spadd_into of the real kernel) is untouched.
        let t4 = s.spgemm_time_parallel(1e9, 1e7, 4);
        let want =
            1e9 / s.spgemm_products_per_sec / s.spgemm_speedup(4) + 1e7 / s.merge_nnz_per_sec;
        assert!((t4 - want).abs() < 1e-12);
        assert!(t4 < s.spgemm_time(1e9, 1e7));
        assert!(t4 > s.spgemm_time(1e9, 1e7) / s.spgemm_speedup(4));
    }

    #[test]
    fn simd_lane_speedup_multiplies_the_pool_term() {
        // Summit aligns on GPUs: the lane factor must be neutral.
        assert_eq!(MachineModel::summit().simd_lane_speedup, 1.0);
        // On a CPU machine the factor scales the whole affine term, so it
        // compounds with workers instead of only shifting the intercept.
        let c = MachineModel::commodity();
        let lanes = c.simd_lane_speedup;
        assert!(lanes > 1.0);
        assert!((c.align_speedup(1) - lanes).abs() < 1e-12);
        assert!((c.align_speedup(4) - lanes * (1.0 + 3.0 * c.align_pool_efficiency)).abs() < 1e-12);
        let scalar = MachineModel {
            simd_lane_speedup: 1.0,
            ..c.clone()
        };
        assert!(
            (c.align_time_parallel(1e9, 1e5, 4) * lanes - scalar.align_time_parallel(1e9, 1e5, 4))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn cpu_fallback_cups() {
        let c = MachineModel::commodity();
        assert!((c.node_cups() - 0.5e9 * 32.0).abs() < 1.0);
    }
}
