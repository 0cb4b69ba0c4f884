//! Seeded workload inputs. The program only ever sees the FASTA bytes
//! made here; the seed is the benchmark's argument.

use std::collections::{BTreeMap, HashSet};

use pastis_seqio::fasta::write_fasta;
use pastis_seqio::{SeqStore, SyntheticConfig, SyntheticDataset};

/// Planted work of one draw: pairs of planted homologs, their DP cells
/// (the sum of `len(a) × len(b)` over those pairs), and the sequence count
/// (chance k-mer matches between unrelated sequences add alignments in
/// proportion to its square).
struct Work {
    pairs: f64,
    cells: f64,
    sequences: usize,
}

/// A `search_align` draw (±20 % in alignment time and ±40 % in aligned
/// pairs from seed to seed without fixing them).
const ALIGN_WORK: Work = Work {
    pairs: 700.0,
    cells: 45_500_000.0,
    sequences: 300,
};
/// The `search_sparse` draw.
const SPARSE_WORK: Work = Work {
    pairs: 900.0,
    cells: 67_500_000.0,
    sequences: 9_000,
};
/// References of `serve_stream`, exactly: the index, and with it every
/// request's stripe loads and peak memory, grows with them.
pub const SERVE_REFS: usize = 2_000;
/// Held-out queries drawn for `serve_stream` (more than any run sends).
pub const SERVE_QUERY_POOL: usize = 800;
/// Planted DP cells of one `serve_stream` query, at most.
pub const SERVE_QUERY_CELLS: usize = 2_000_000;
/// Length of a `serve_stream` query, at most (twice the mean): a query
/// also aligns against every unrelated reference it shares two k-mers
/// with, and those chance hits cost the square of its length.
pub const SERVE_QUERY_MAX_LEN: usize = 500;

/// FASTA bytes of a store, 60 residues per line.
pub fn to_fasta(store: &SeqStore) -> Vec<u8> {
    let mut buf = Vec::new();
    write_fasta(&mut buf, &store.to_records(), 60).expect("writing to a Vec cannot fail");
    buf
}

/// Whole families of `ds`, taken in draw order until the planted pairs
/// and cells are both within 2 % of `work`, then singletons up to
/// `work.sequences` (at least 15 % of the set when the families need
/// more room). Geometric family sizes make a plain draw's work swing from
/// seed to seed: one family of 30 long members holds as much as a hundred
/// small ones.
fn fixed_work(ds: &SyntheticDataset, work: &Work) -> Vec<u8> {
    let store = &ds.store;
    let mut families: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut singletons = Vec::new();
    for (i, &f) in ds.family.iter().enumerate() {
        if f == SyntheticDataset::SINGLETON {
            singletons.push(i);
        } else {
            families.entry(f).or_default().push(i);
        }
    }
    // Fill both totals from below at an even pace: a family is taken only
    // if neither total then exceeds its target by more than 1 %, and the
    // two stay within 3 % of each other as shares of their targets (or
    // draw closer).
    let (mut pairs, mut cells) = (0f64, 0f64);
    let mut chosen = Vec::new();
    for members in families.values() {
        if pairs >= 0.98 * work.pairs && cells >= 0.98 * work.cells {
            break;
        }
        let mut w = 0f64;
        for (a, &x) in members.iter().enumerate() {
            for &y in &members[a + 1..] {
                w += (store.seq_len(x) * store.seq_len(y)) as f64;
            }
        }
        let p = (members.len() * (members.len() - 1) / 2) as f64;
        let skew = |p: f64, c: f64| (p / work.pairs - c / work.cells).abs();
        let (after, before) = (skew(pairs + p, cells + w), skew(pairs, cells));
        if pairs + p <= 1.01 * work.pairs
            && cells + w <= 1.01 * work.cells
            && (after <= 0.03 || after < before)
        {
            pairs += p;
            cells += w;
            chosen.extend_from_slice(members);
        }
    }
    assert!(
        pairs >= 0.98 * work.pairs && cells >= 0.98 * work.cells,
        "the draw cannot meet the planted work ({pairs} pairs, {cells} cells)"
    );
    let n_single = work.sequences.max(chosen.len() * 20 / 17) - chosen.len();
    assert!(
        n_single <= singletons.len(),
        "the draw holds too few singletons"
    );
    chosen.extend_from_slice(&singletons[..n_single]);
    // The generator already shuffled ids; ascending draw order keeps that.
    chosen.sort_unstable();
    to_fasta(&store.subset(&chosen))
}

/// `search_align`: a [`fixed_work`] draw from the `pastis generate`
/// defaults (log-normal lengths of mean 250, families of about 8, 30 %
/// singletons).
pub fn search_align(seed: u64) -> Vec<u8> {
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 4_000,
        seed,
        ..SyntheticConfig::default()
    });
    fixed_work(&ds, &ALIGN_WORK)
}

/// `search_sparse`: a [`fixed_work`] draw of mostly singletons (90 %) and
/// families of about 3.
pub fn search_sparse(seed: u64) -> Vec<u8> {
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 12_000,
        singleton_fraction: 0.9,
        mean_family_size: 3.0,
        seed,
        ..SyntheticConfig::default()
    });
    fixed_work(&ds, &SPARSE_WORK)
}

/// `serve_stream`: a family-rich reference set and held-out homologs of
/// it from the same draw. A family member becomes a query only once the
/// references already hold a relative of it, and at most every other
/// member is held out. Queries are distinct in content, so no request
/// repeats an earlier one. A query's length is at most
/// [`SERVE_QUERY_MAX_LEN`] and its planted work (its length times the
/// summed lengths of its relatives among the references) at most
/// [`SERVE_QUERY_CELLS`]: the heaviest queries would otherwise cost ten
/// times the median request and swing a stream's alignment work twofold
/// from seed to seed. Returns `(references, queries)` FASTA.
pub fn serve_stream(seed: u64) -> (Vec<u8>, Vec<u8>) {
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 2 * SERVE_REFS,
        seed,
        ..SyntheticConfig::default()
    });
    let store = &ds.store;
    let mut in_refs: BTreeMap<u32, usize> = BTreeMap::new();
    let mut seen: HashSet<&[u8]> = HashSet::new();
    let (mut refs, mut held_out) = (Vec::new(), Vec::new());
    for (i, &f) in ds.family.iter().enumerate() {
        if refs.len() == SERVE_REFS {
            break;
        }
        let held = in_refs.get(&f).copied().unwrap_or(0);
        let wants_query = f != SyntheticDataset::SINGLETON
            && held > 0
            && held_out.len() < SERVE_QUERY_POOL
            && (refs.len() + held_out.len()) % 2 == 0;
        if wants_query && seen.insert(store.seq(i)) {
            held_out.push(i);
        } else {
            refs.push(i);
            *in_refs.entry(f).or_default() += store.seq_len(i);
        }
    }
    let queries: Vec<usize> = held_out
        .into_iter()
        .filter(|&q| {
            let len = store.seq_len(q);
            len <= SERVE_QUERY_MAX_LEN && len * in_refs[&ds.family[q]] <= SERVE_QUERY_CELLS
        })
        .collect();
    (
        to_fasta(&store.subset(&refs)),
        to_fasta(&store.subset(&queries)),
    )
}
