//! End-to-end file pipeline: FASTA in → search → the same similarity
//! graph as searching the in-memory store, and corrupt inputs rejected
//! ("The input to PASTIS is a file in FASTA format … the output is the
//! similarity graph in triplets").

use std::path::PathBuf;

use pastis::core::pipeline::run_search_serial;
use pastis::core::SearchParams;
use pastis::seqio::fasta::{parse_fasta, write_fasta, SeqStore};
use pastis::seqio::{SyntheticConfig, SyntheticDataset};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pastis-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fasta_roundtrip_preserves_search_results() {
    let dir = temp_dir("roundtrip");
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 50,
        mean_len: 80.0,
        seed: 4,
        ..SyntheticConfig::small(50, 4)
    });
    let params = SearchParams::test_defaults();
    let direct = run_search_serial(&ds.store, &params).unwrap();

    // Write to FASTA, read back, search again.
    let path = dir.join("input.fa");
    let mut buf = Vec::new();
    write_fasta(&mut buf, &ds.store.to_records(), 60).unwrap();
    std::fs::write(&path, &buf).unwrap();
    let records = parse_fasta(std::io::Cursor::new(std::fs::read(&path).unwrap())).unwrap();
    let store2 = SeqStore::from_records(&records).unwrap();
    assert_eq!(store2, ds.store);
    let via_file = run_search_serial(&store2, &params).unwrap();
    assert_eq!(via_file.graph.edges(), direct.graph.edges());
}

#[test]
fn corrupt_fasta_is_rejected_not_miscounted() {
    // Failure injection: truncated/corrupt inputs must error loudly.
    let bad_header = "MKVL\n>ok\nMKVL\n";
    assert!(parse_fasta(std::io::Cursor::new(bad_header)).is_err());

    let empty_rec = ">a\n>b\nMKVL\n";
    assert!(parse_fasta(std::io::Cursor::new(empty_rec)).is_err());

    let bad_residue = parse_fasta(std::io::Cursor::new(">a\nMK9L\n")).unwrap();
    assert!(SeqStore::from_records(&bad_residue).is_err());
}
