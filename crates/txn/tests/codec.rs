//! Properties of the log record codec: every record survives a round
//! trip, the encoder picks the short seal framing on its own, and no
//! byte string — arbitrary, bit-flipped, or carrying an absurd length
//! prefix — makes the decoder panic or allocate past what it was given.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use scdb_txn::wal::{decode_record, encode_record};
use scdb_txn::LogRecord;
use scdb_types::Value;

/// Records the largest single allocation made on each thread, so a test
/// can bound what one decode asks the allocator for.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping touches only a const-initialized thread-local.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` makes on this thread.
fn peak_alloc(f: impl FnOnce()) -> usize {
    PEAK.with(|p| p.set(0));
    f();
    PEAK.with(Cell::get)
}

fn encode(record: &LogRecord) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_record(&mut buf, record);
    buf.freeze().as_slice().to_vec()
}

fn decode(bytes: &[u8]) -> Result<LogRecord, scdb_txn::TxnError> {
    decode_record(&mut Bytes::from(bytes), 0)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z é]{0,12}".prop_map(Value::str),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

/// Seals as the constructor builds them: 0, 1 or 64 txns, and either no
/// participants or a vector of 2–4.
fn arb_seal() -> impl Strategy<Value = LogRecord> {
    (
        prop_oneof![Just(0usize), Just(1), Just(64)],
        vec(any::<u64>(), 64..65),
        any::<bool>(),
        vec((any::<u32>(), any::<u64>()), 2..5),
    )
        .prop_map(|(n, txns, cross, shards)| {
            LogRecord::seal(&txns[..n], if cross { &shards } else { &[] })
        })
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let name = "[a-z_]{0,10}";
    prop_oneof![
        (any::<u64>(), any::<u64>(), option::of(arb_value()))
            .prop_map(|(txn, key, value)| LogRecord::Write { txn, key, value }),
        arb_seal(),
        (name, option::of(name)).prop_map(|(name, identity_attr)| LogRecord::SourceReg {
            name,
            identity_attr
        }),
        (
            any::<u64>(),
            name,
            vec((name, arb_value()), 0..6),
            option::of("[a-z ]{0,24}"),
        )
            .prop_map(|(txn, source, attrs, text)| LogRecord::IngestRow {
                txn,
                source,
                attrs,
                text
            }),
        any::<u64>().prop_map(|txn| LogRecord::DiscoverLinks { txn }),
        (any::<u64>(), option::of(arb_value()))
            .prop_map(|(key, value)| LogRecord::Enrich { key, value }),
        (name, name, name, any::<u8>()).prop_map(|(name, source, attr, kind)| {
            LogRecord::IndexCreate {
                name,
                source,
                attr,
                kind,
            }
        }),
        name.prop_map(|name| LogRecord::IndexDrop { name }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_record_roundtrips(r in arb_record()) {
        let mut bytes = Bytes::from(encode(&r));
        prop_assert_eq!(decode_record(&mut bytes, 0).unwrap(), r);
        prop_assert!(bytes.is_empty(), "decoded to the last byte");
    }

    #[test]
    fn constructor_seals_roundtrip(seal in arb_seal()) {
        prop_assert_eq!(decode(&encode(&seal)).unwrap(), seal);
    }

    #[test]
    fn a_lone_seal_is_nine_bytes_with_tag_two(txn in any::<u64>(), shard in any::<u32>()) {
        for seal in [LogRecord::seal(&[txn], &[]), LogRecord::seal(&[txn], &[(shard, txn)])] {
            let bytes = encode(&seal);
            prop_assert_eq!(bytes.len(), 9);
            prop_assert_eq!(bytes[0], 2);
            prop_assert_eq!(decode(&bytes).unwrap(), LogRecord::seal(&[txn], &[]));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(tag in 0u8..13, data in vec(any::<u8>(), 0..64)) {
        let _ = decode(&data);
        // Again behind every tag, so each arm sees garbage, not just the
        // catch-all.
        let mut tagged = vec![tag];
        tagged.extend(&data);
        let _ = decode(&tagged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_single_bit_flip_decodes_or_errs(r in arb_record()) {
        let bytes = encode(&r);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
        }
    }
}

#[test]
fn max_prefixes_never_allocate_past_the_input() {
    let max: &[u8] = &u32::MAX.to_be_bytes();
    let inputs: [&[&[u8]]; 5] = [
        // A seal claiming u32::MAX txns, then its participant suffix.
        &[&[9], max, &[0; 8]],
        &[&[9, 0, 0, 0, 1], &[0; 8], max, &[0; 12]],
        // A row (txn, source "s") claiming u32::MAX attributes.
        &[&[6], &[0; 8], &[0, 0, 0, 1, b's'], max, &[0; 16]],
        // u32::MAX string lengths: a name, and a string value.
        &[&[5], max, b"name"],
        &[&[1], &[0; 16], &[5], max, b"value"],
    ];
    for parts in inputs {
        let input = Bytes::from(parts.concat());
        let mut result = None;
        let peak = peak_alloc(|| result = Some(decode_record(&mut input.clone(), 0)));
        assert!(result.unwrap().is_err(), "{input:?} is truncated");
        assert!(
            peak <= input.len(),
            "decoding {} bytes allocated {peak} at once",
            input.len()
        );
    }
}
