//! Criterion benches for FS.11: transaction throughput under snapshot vs
//! relaxed enrichment isolation, and the log record codec.

use bytes::BytesMut;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scdb_txn::wal::{decode_record, encode_record};
use scdb_txn::{EnrichedDb, IsolationMode, LogRecord};
use scdb_types::Value;

fn bench_read_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn/fs11_reads");
    for mode in [IsolationMode::Snapshot, IsolationMode::RelaxedEnrichment] {
        let db = EnrichedDb::new(mode);
        for k in 0..1000u64 {
            db.enrich(k, Value::Int(k as i64));
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &db,
            |b, db| {
                b.iter(|| {
                    let mut t = db.begin();
                    let mut acc = 0i64;
                    for k in 0..1000u64 {
                        if let Some(Value::Int(v)) = db.read(&mut t, k) {
                            acc += v;
                        }
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_commit(c: &mut Criterion) {
    let db = EnrichedDb::new(IsolationMode::Snapshot);
    c.bench_function("txn/commit_10_writes", |b| {
        b.iter(|| {
            let mut t = db.begin();
            for k in 0..10u64 {
                t.write(k, Value::Int(1)).unwrap();
            }
            black_box(db.txn_manager().commit(&mut t).unwrap())
        })
    });
}

fn bench_wal(c: &mut Criterion) {
    let records: Vec<LogRecord> = (0..10_000u64)
        .flat_map(|i| {
            [
                LogRecord::Write {
                    txn: i,
                    key: i,
                    value: Some(Value::Int(i as i64)),
                },
                LogRecord::seal(&[i], &[]),
            ]
        })
        .collect();
    let encode = || {
        let mut buf = BytesMut::new();
        for r in &records {
            encode_record(&mut buf, r);
        }
        buf.freeze()
    };
    c.bench_function("txn/wal_encode_10k", |b| {
        b.iter(|| black_box(encode().len()))
    });
    let bytes = encode();
    c.bench_function("txn/wal_decode_10k", |b| {
        b.iter(|| {
            let mut cursor = bytes.clone();
            let mut n = 0usize;
            while !cursor.is_empty() {
                decode_record(&mut cursor, n).expect("clean log");
                n += 1;
            }
            black_box(n)
        })
    });
}

criterion_group!(benches, bench_read_modes, bench_commit, bench_wal);
criterion_main!(benches);
