//! Cross-format interop suite: the TSV and `bin v1` binary columnar
//! codecs must agree on every dataset either of them can represent.
//!
//! Property tests drive arbitrary corpora — escape-heavy tag names,
//! missing and corrupt popularity vectors — through TSV → binary → TSV
//! and assert losslessness; determinism tests pin the binary encoding
//! byte for byte across repeated encodes and across
//! `TAGDIST_THREADS` settings; the error-path tests prove the decoder
//! rejects (never panics on) truncation, header corruption and payload
//! bit-flips.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, missing_docs)]

use proptest::prelude::*;
use tagdist_dataset::{
    binfmt, decode_any, filter, filter_columnar, sniff, tsv, write_binary, Dataset, DatasetBuilder,
    DatasetError, DatasetFormat, Mmap, RawPopularity,
};

/// Structural equality over everything both formats persist: order,
/// keys, titles, views, popularity bytes, and tag *names* (ids are an
/// encoding detail; names are the contract).
fn assert_same(a: &Dataset, b: &Dataset) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.country_count(), b.country_count());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.title, y.title);
        assert_eq!(x.total_views, y.total_views);
        assert_eq!(x.popularity, y.popularity);
        let x_names: Vec<&str> = x.tags.iter().map(|&t| a.tags().name(t)).collect();
        let y_names: Vec<&str> = y.tags.iter().map(|&t| b.tags().name(t)).collect();
        assert_eq!(x_names, y_names);
    }
}

fn tsv_bytes(d: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    tsv::write(d, &mut buf).unwrap();
    buf
}

fn bin_bytes(d: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(d, &mut buf).unwrap();
    buf
}

/// A small fixed corpus covering every popularity kind and the TSV
/// escape alphabet.
fn sample() -> Dataset {
    let mut b = DatasetBuilder::new(3);
    b.push_video_titled(
        "plain",
        "A Title",
        1_000,
        &["pop", "Rock"],
        RawPopularity::decode(vec![0, 30, 61], 3),
    );
    b.push_video_titled(
        "esc\\aped,key\there",
        "title\twith,delims\\",
        0,
        &["a,b", "c\\d", "e\tf"],
        RawPopularity::Missing,
    );
    b.push_video_titled(
        "corrupt",
        "",
        u64::MAX,
        &[],
        RawPopularity::Corrupt(vec![255, 0, 7, 9]),
    );
    b.build()
}

#[test]
fn sniffing_tells_the_formats_apart() {
    let d = sample();
    assert_eq!(sniff(&tsv_bytes(&d)), Some(DatasetFormat::Tsv));
    assert_eq!(sniff(&bin_bytes(&d)), Some(DatasetFormat::Binary));
    assert_eq!(sniff(b"not a dataset"), None);
    assert!(decode_any(b"not a dataset").is_err());
}

#[test]
fn fixed_corpus_survives_both_directions() {
    let d = sample();
    let via_bin = decode_any(&bin_bytes(&d)).unwrap();
    assert_same(&d, &via_bin);
    // TSV -> bin -> TSV reproduces the original text bytes exactly.
    let original_tsv = tsv_bytes(&d);
    assert_eq!(original_tsv, tsv_bytes(&via_bin));
}

/// The binary encoding is a pure function of the dataset: repeated
/// encodes — including under different worker-pool settings, which
/// must not leak into serialization — are byte-identical.
#[test]
fn binary_encode_is_deterministic_across_thread_settings() {
    let d = sample();
    let reference = bin_bytes(&d);
    for threads in ["1", "8"] {
        std::env::set_var("TAGDIST_THREADS", threads);
        assert_eq!(
            reference,
            bin_bytes(&d),
            "binary encoding drifted at TAGDIST_THREADS={threads}"
        );
        // Decode under the same setting and re-encode: still identical.
        let decoded = decode_any(&reference).unwrap();
        assert_eq!(reference, bin_bytes(&decoded));
    }
    std::env::remove_var("TAGDIST_THREADS");
}

#[test]
fn truncation_at_every_byte_is_an_error_not_a_panic() {
    let bytes = bin_bytes(&sample());
    for cut in 0..bytes.len() {
        assert!(
            decode_any(&bytes[..cut]).is_err(),
            "decoding a {cut}-byte prefix of {} must fail",
            bytes.len()
        );
    }
    assert!(decode_any(&bytes).is_ok());
}

/// The borrowed decoder validates before it hands out a single
/// section: every truncation point, header corruption and payload
/// bit-flip is rejected.
#[test]
fn borrowed_decode_rejects_truncation_and_corruption() {
    let bytes = bin_bytes(&sample());
    for cut in 0..bytes.len() {
        assert!(
            binfmt::decode_borrowed(&bytes[..cut]).is_err(),
            "borrowing a {cut}-byte prefix of {} must fail",
            bytes.len()
        );
    }
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert!(
        binfmt::decode_borrowed(&bad).is_err(),
        "payload bit-flip must fail the section checksum in borrowed mode"
    );
    let mut bad = bytes.clone();
    bad[binfmt::MAGIC.len() - 2] = b'9';
    assert!(
        binfmt::decode_borrowed(&bad).is_err(),
        "wrong version must not decode in borrowed mode"
    );
    assert!(binfmt::decode_borrowed(&bytes).is_ok());
}

/// The mmap load path and the buffered read produce bit-identical
/// datasets: same rebuilt records, same filtered `CleanDataset` —
/// zero-copy is a transport detail, never a semantic one.
#[test]
fn mmap_and_buffered_loads_decode_identically() {
    let d = sample();
    let bytes = bin_bytes(&d);
    let mut path = std::env::temp_dir();
    path.push(format!("tagdist-interop-{}.bin", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    let map = Mmap::open(&path).unwrap();
    assert_eq!(&map[..], &bytes[..], "mapping must expose the file bytes");

    let via_mmap = binfmt::decode_borrowed(&map).unwrap();
    let via_buffer = binfmt::decode_borrowed(&bytes).unwrap();
    let records = via_mmap.to_dataset();
    assert_same(&records, &via_buffer.to_dataset());
    assert_same(&records, &decode_any(&bytes).unwrap());
    assert_eq!(tsv_bytes(&records), tsv_bytes(&d));

    let clean_mmap = filter_columnar(&via_mmap);
    assert_eq!(clean_mmap, filter_columnar(&via_buffer));
    assert_eq!(clean_mmap, filter(&decode_any(&bytes).unwrap()));

    drop(map);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn payload_bit_flips_are_caught_by_section_checksums() {
    let good = bin_bytes(&sample());
    let mut seen_checksum_error = false;
    // Flip one byte somewhere in the payload (past the magic + header
    // + section table) at a few probe points.
    let payload_start = good.len() - (good.len() / 3);
    for probe in [payload_start, good.len() - 9, good.len() - 1] {
        let mut bad = good.clone();
        bad[probe] ^= 0x40;
        let err = decode_any(&bad).expect_err("corrupted payload must not decode");
        if matches!(err, DatasetError::Checksum { .. }) {
            seen_checksum_error = true;
        }
    }
    assert!(
        seen_checksum_error,
        "at least one probe must surface as a checksum mismatch"
    );
}

#[test]
fn header_corruption_is_rejected() {
    let good = bin_bytes(&sample());
    // Corrupt the version digit of the magic line.
    let mut bad = good.clone();
    let pos = binfmt::MAGIC.len() - 2;
    bad[pos] = b'9';
    assert!(decode_any(&bad).is_err(), "wrong version must not decode");
    // Corrupt a section-table length field (right after the magic and
    // the four header words, inside the first table entry).
    let mut bad = good.clone();
    let table_entry = binfmt::MAGIC.len() + 16 + 4;
    bad[table_entry..table_entry + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(
        decode_any(&bad).is_err(),
        "an absurd section offset must not decode"
    );
}

fn arb_pop() -> impl Strategy<Value = RawPopularity> {
    prop_oneof![
        Just(RawPopularity::Missing),
        proptest::collection::vec(0u8..=255, 0..8).prop_map(|v| RawPopularity::decode(v, 4)),
        proptest::collection::vec(0u8..=61, 4..=4).prop_map(|v| RawPopularity::decode(v, 4)),
    ]
}

proptest! {
    /// TSV -> bin -> TSV is lossless and text-byte-identical for any
    /// representable corpus, including escape-heavy keys, titles and
    /// tags and every popularity kind.
    #[test]
    fn tsv_bin_tsv_is_lossless(
        videos in proptest::collection::vec(
            ("[a-zA-Z0-9,\\\\\t ]{1,12}", "[a-zA-Z0-9,\\\\\t ]{0,16}",
             0u64..1_000_000,
             proptest::collection::vec("[a-z0-9 ,\\\\\t]{1,8}", 0..5),
             arb_pop()),
            0..20
        )
    ) {
        let mut b = DatasetBuilder::new(4);
        for (key, title, views, tags, pop) in &videos {
            let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video_titled(key, title, *views, &refs, pop.clone());
        }
        let d = b.build();
        let text = tsv_bytes(&d);
        let binary = bin_bytes(&d);
        let decoded = decode_any(&binary).unwrap();
        prop_assert_eq!(d.len(), decoded.len());
        prop_assert_eq!(&text, &tsv_bytes(&decoded));
        // And the binary re-encode of the decoded dataset is stable.
        prop_assert_eq!(&binary, &bin_bytes(&decoded));
    }

    /// The binary decoder never panics on arbitrary corruption of a
    /// valid encoding: one mutated byte either still decodes (the flip
    /// landed outside a checked region, e.g. in the magic's trailing
    /// newline it did not) or returns an error.
    #[test]
    fn single_byte_mutations_never_panic(
        probe in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let mut bytes = bin_bytes(&sample());
        let pos = probe % bytes.len();
        bytes[pos] ^= mask;
        let _ = decode_any(&bytes);
    }
}
