//! Layer times and counts of composed work, shared by the traced runs.

use crate::util::Outcome;

/// Seconds spent in, and work done by, each layer's public calls, totalled
/// over a traced run. A field stays 0 on a workload whose path does not
/// reach the layer (`comm` when serving, stripe loads when searching).
#[derive(Default)]
pub struct Layers {
    /// Seconds of each `PersistedIndex::load_stripe` call.
    pub load_s: Vec<f64>,
    pub stripes_loaded: u64,
    pub kmer_s: f64,
    pub kmer_nnz: u64,
    pub spgemm_s: f64,
    pub products: u64,
    pub candidates: u64,
    pub block_nnz_max: u64,
    pub bcast_bytes: u64,
    pub messages: u64,
    pub wait_s: f64,
    pub filter_s: f64,
    pub align_s: f64,
    pub pairs: u64,
    pub cells: u64,
    pub cpu_s: f64,
    pub similar: u64,
    pub output_s: f64,
}

impl Layers {
    /// Seconds attributed to a layer. Comm waits happen inside the SpGEMM
    /// calls and are not added again.
    pub fn attributed_s(&self) -> f64 {
        self.load_s.iter().sum::<f64>()
            + self.kmer_s
            + self.spgemm_s
            + self.filter_s
            + self.align_s
            + self.output_s
    }

    pub fn add(&mut self, o: &Layers) {
        self.load_s.extend_from_slice(&o.load_s);
        self.stripes_loaded += o.stripes_loaded;
        self.kmer_s += o.kmer_s;
        self.kmer_nnz += o.kmer_nnz;
        self.spgemm_s += o.spgemm_s;
        self.products += o.products;
        self.candidates += o.candidates;
        self.block_nnz_max = self.block_nnz_max.max(o.block_nnz_max);
        self.bcast_bytes += o.bcast_bytes;
        self.messages += o.messages;
        self.wait_s += o.wait_s;
        self.filter_s += o.filter_s;
        self.align_s += o.align_s;
        self.pairs += o.pairs;
        self.cells += o.cells;
        self.cpu_s += o.cpu_s;
        self.similar += o.similar;
        self.output_s += o.output_s;
    }

    /// Emit the `kmer`, `sparse`, `comm`, `pipeline`, `align` and `pool`
    /// metrics; `wall` is the untraced wall time of the same work.
    pub fn emit(&self, out: &mut Outcome, wall: f64) {
        out.metric("kmer.build_s", self.kmer_s, "s");
        out.metric("kmer.nnz", self.kmer_nnz as f64, "count");
        out.metric("sparse.spgemm_s", self.spgemm_s, "s");
        out.metric("sparse.products", self.products as f64, "count");
        let mprod = self.products as f64 / self.spgemm_s / 1e6;
        out.metric("sparse.mprod_per_s", mprod, "Mprod/s");
        out.metric("sparse.candidates", self.candidates as f64, "count");
        out.metric("sparse.block_nnz_max", self.block_nnz_max as f64, "count");
        out.metric("comm.bcast_bytes", self.bcast_bytes as f64, "B");
        out.metric("comm.messages", self.messages as f64, "count");
        out.metric("comm.wait_s", self.wait_s, "s");
        out.metric("pipeline.filter_s", self.filter_s, "s");
        let filter_ratio = self.pairs as f64 / self.candidates as f64;
        out.metric("pipeline.filter_ratio", filter_ratio, "ratio");
        out.metric("pipeline.output_s", self.output_s, "s");
        out.metric("pipeline.unattributed_s", wall - self.attributed_s(), "s");
        out.metric("align.s", self.align_s, "s");
        out.metric("align.pairs", self.pairs as f64, "count");
        out.metric("align.cells", self.cells as f64, "count");
        let mcups = self.cells as f64 / self.align_s / 1e6;
        out.metric("align.mcups", mcups, "MCUPS");
        let useful = self.similar as f64 / self.pairs as f64;
        out.metric("align.useful_ratio", useful, "ratio");
        out.metric("pool.cpu_s", self.cpu_s, "s");
        out.metric("pool.speedup", self.cpu_s / self.align_s, "ratio");
    }
}
