//! Property-based tests over core invariants (proptest).
//!
//! Each property targets a load-bearing invariant a downstream user relies
//! on: total ordering of heterogeneous values, lossless column encodings,
//! WAL crash-safety, c-table world algebra, layout permutations, fuzzy
//! logic laws, and evidence-interval wellformedness.

use proptest::prelude::*;
use scdb_storage::cluster::{ClusterStrategy, ClusteredLayout, CoAccessTracker};
use scdb_storage::column::{ColumnSegment, Encoding};
use scdb_storage::page::PageConfig;
use scdb_txn::{DurableWal, FailpointLog, FsyncPolicy, LogRecord};
use scdb_types::Value;
use scdb_uncertain::{t_conorm, t_norm, Evidence, TNorm};

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::str),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Value ordering is a total order: antisymmetric and transitive over
    /// sampled triples, and consistent with equality.
    #[test]
    fn value_ordering_is_total(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // Transitivity (≤ chains).
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq consistency.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }

    /// Every column encoding round-trips every scalar column.
    #[test]
    fn column_encodings_roundtrip(values in proptest::collection::vec(arb_scalar(), 1..80)) {
        let (seg, _enc) = ColumnSegment::build(&values).unwrap();
        prop_assert_eq!(seg.decode(), values.clone());
        prop_assert_eq!(seg.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            let got = seg.get(i);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    /// Integer columns round-trip under the Delta encoding specifically
    /// (wrapping arithmetic must be exact).
    #[test]
    fn delta_encoding_exact(ints in proptest::collection::vec(any::<i64>(), 1..60)) {
        let values: Vec<Value> = ints.iter().copied().map(Value::Int).collect();
        let seg = ColumnSegment::encode_as(&values, Encoding::Delta);
        prop_assert_eq!(seg.decode(), values);
    }

    /// The durable log hands back exactly what was appended, and a cut of
    /// its durable image at any byte reopens to a prefix of the appended
    /// records (crash safety).
    #[test]
    fn wal_roundtrip_and_truncation(
        writes in proptest::collection::vec((any::<u64>(), any::<u64>(), arb_scalar()), 0..20),
        cut in any::<u16>(),
    ) {
        let log = FailpointLog::new();
        let reopen = || {
            DurableWal::open(Box::new(log.clone()), FsyncPolicy::Always, 1 << 20)
                .unwrap()
                .1
                .records
        };
        let mut appended = Vec::new();
        {
            let (mut wal, _) =
                DurableWal::open(Box::new(log.clone()), FsyncPolicy::Always, 1 << 20).unwrap();
            for (txn, key, v) in &writes {
                let sealed = [
                    LogRecord::Write { txn: *txn, key: *key, value: Some(v.clone()) },
                    LogRecord::seal(&[*txn], &[]),
                ];
                wal.append_sealed(&sealed).unwrap();
                appended.extend(sealed);
            }
        }
        prop_assert_eq!(reopen(), appended.clone());
        let seg = "wal-00000001.seg";
        log.cut_durable(seg, u64::from(cut) % (log.durable_len(seg) + 1));
        let torn = reopen();
        prop_assert!(torn.len() <= appended.len());
        prop_assert_eq!(&torn[..], &appended[..torn.len()]);
    }

    /// Cluster layouts are permutations for every strategy and any
    /// observed workload.
    #[test]
    fn layouts_are_permutations(
        groups in proptest::collection::vec(
            proptest::collection::vec(0u64..200, 1..6), 0..40),
        page in 1u64..32,
    ) {
        let mut tracker = CoAccessTracker::default();
        for g in &groups {
            tracker.observe(g);
        }
        for strategy in [
            ClusterStrategy::Identity,
            ClusterStrategy::FrequencyOrder,
            ClusterStrategy::CoAccessGreedy,
        ] {
            let layout = ClusteredLayout::build(&tracker, 200, PageConfig::new(page), strategy);
            let mut seen = [false; 200];
            for o in 0..200u64 {
                let p = layout.map.position_of(o).unwrap() as usize;
                prop_assert!(!seen[p], "{:?}", strategy);
                seen[p] = true;
            }
        }
    }

    /// t-norm laws hold for all inputs: bounds, commutativity,
    /// monotonicity, identity.
    #[test]
    fn t_norm_laws(a in 0.0f64..=1.0, b in 0.0f64..=1.0, c in 0.0f64..=1.0) {
        for norm in [TNorm::Minimum, TNorm::Product, TNorm::Lukasiewicz] {
            let ab = t_norm(norm, a, b);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - t_norm(norm, b, a)).abs() < 1e-12);
            prop_assert!((t_norm(norm, a, 1.0) - a).abs() < 1e-12);
            // Monotone in each argument.
            if b <= c {
                prop_assert!(t_norm(norm, a, b) <= t_norm(norm, a, c) + 1e-12);
            }
            // Conorm dual bounds.
            let o = t_conorm(norm, a, b);
            prop_assert!((0.0..=1.0).contains(&o));
            prop_assert!(o + 1e-12 >= a.max(b));
        }
    }

    /// Evidence intervals stay well-formed under the whole algebra.
    #[test]
    fn evidence_wellformed(
        s1 in 0.0f64..=1.0, p1 in 0.0f64..=1.0,
        s2 in 0.0f64..=1.0, p2 in 0.0f64..=1.0,
        w1 in 0.0f64..=5.0, w2 in 0.0f64..=5.0,
    ) {
        let a = Evidence::new(s1, p1);
        let b = Evidence::new(s2, p2);
        for e in [a.and(b), a.or(b), a.not(), Evidence::fuse(&[(a, w1), (b, w2)])] {
            prop_assert!(e.support() >= 0.0 && e.support() <= 1.0);
            prop_assert!(e.plausibility() >= e.support());
            prop_assert!(e.plausibility() <= 1.0);
        }
        // Double negation is the identity.
        let nn = a.not().not();
        prop_assert!((nn.support() - a.support()).abs() < 1e-12);
        prop_assert!((nn.plausibility() - a.plausibility()).abs() < 1e-12);
    }

    /// Saturation is monotone: adding a subclass axiom never removes
    /// derived type facts.
    #[test]
    fn saturation_is_monotone(
        axioms in proptest::collection::vec((0u32..8, 0u32..8), 1..10),
        extra in (0u32..8, 0u32..8),
        typed in proptest::collection::vec((0u64..6, 0u32..8), 1..8),
    ) {
        use scdb_semantic::{Ontology, Reasoner};
        use scdb_types::{Confidence, EntityId};
        let build = |axs: &[(u32, u32)]| {
            let mut o = Ontology::new();
            // Pre-declare 8 concepts deterministically.
            for i in 0..8 {
                o.concept(&format!("C{i}"));
            }
            for (sub, sup) in axs {
                let s = o.find_concept(&format!("C{sub}")).unwrap();
                let p = o.find_concept(&format!("C{sup}")).unwrap();
                o.add_axiom(scdb_semantic::Axiom::Subclass(
                    s,
                    scdb_semantic::Concept::Named(p),
                ));
            }
            for (e, c) in &typed {
                let cid = o.find_concept(&format!("C{c}")).unwrap();
                o.assert_type(EntityId(*e), cid, Confidence::CERTAIN);
            }
            o
        };
        let base = build(&axioms);
        let mut extended_axioms = axioms.clone();
        extended_axioms.push(extra);
        let extended = build(&extended_axioms);
        let r = Reasoner::new();
        let sat_base = r.saturate(&base);
        let sat_ext = r.saturate(&extended);
        for e in 0..6u64 {
            for (c, _) in base.axioms().iter().enumerate() {
                let _ = c;
                let _ = e;
            }
        }
        // Every (entity, concept) fact of the base remains derivable.
        for e in 0..6u64 {
            for i in 0..8u32 {
                let cid = base.find_concept(&format!("C{i}")).unwrap();
                if sat_base.has_type(EntityId(e), cid) {
                    prop_assert!(
                        sat_ext.has_type(EntityId(e), cid),
                        "fact lost after adding an axiom"
                    );
                }
            }
        }
    }

    /// Fuzzy CLOSE TO membership: symmetric around the center, monotone
    /// decreasing in distance, and bounded.
    #[test]
    fn close_to_membership_laws(
        center in -100.0f64..100.0,
        width in 0.01f64..50.0,
        d1 in 0.0f64..100.0,
        d2 in 0.0f64..100.0,
    ) {
        use scdb_uncertain::FuzzyPredicate;
        let p = FuzzyPredicate::CloseTo { center, width };
        let m = |x: f64| p.membership(x);
        prop_assert!((m(center) - 1.0).abs() < 1e-12);
        prop_assert!((m(center + d1) - m(center - d1)).abs() < 1e-9, "symmetry");
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m(center + near) + 1e-12 >= m(center + far), "monotone");
        prop_assert!((0.0..=1.0).contains(&m(center + d1)));
    }

    /// ScQL display → parse is a fixpoint for generated simple queries.
    #[test]
    fn scql_display_reparses(
        attr in "[a-z]{1,8}",
        value in -1000i64..1000,
        limit in proptest::option::of(0usize..100),
    ) {
        let q = scdb_query::Query {
            select: vec![attr.clone()],
            from: "src".into(),
            atoms: vec![scdb_query::Atom::Compare {
                attr,
                op: scdb_query::CompareOp::Le,
                value: scdb_query::ast::Literal::Int(value),
            }],
            limit,
        };
        let reparsed = scdb_query::parse(&q.to_string()).unwrap();
        prop_assert_eq!(reparsed, q);
    }
}

use scdb_bench::apply_curation_op;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ingest → crash → recover ≡ the committed prefix: for any seeded
    /// curation schedule, crash point, and torn-tail trim, the recovered
    /// database equals the reference state after some committed prefix of
    /// the schedule — exactly the crash-boundary prefix when the tail is
    /// intact.
    #[test]
    fn crash_recovery_yields_a_committed_prefix(
        seed in any::<u64>(),
        n_ops in 5usize..20,
        frac in 0.0f64..=1.0,
        trim in 0u64..48,
    ) {
        use scdb_core::{Db, DurabilityConfig};
        use scdb_datagen::crash::{crash_schedule, ScheduleConfig};
        use scdb_txn::FailpointLog;

        let ops = crash_schedule(
            &ScheduleConfig { ops: n_ops, kv_rate: 0.3, ..ScheduleConfig::default() },
            seed,
        );
        let live = FailpointLog::new();
        let db = Db::builder()
            .durability_config(DurabilityConfig::store(Box::new(live.clone())).segment_bytes(512))
            .open()
            .unwrap();
        let reference = Db::builder().build();
        let mut dumps = vec![reference.state_dump()];
        let mut forks = vec![live.fork()];
        for op in &ops {
            apply_curation_op(&db, op).unwrap();
            apply_curation_op(&reference, op).unwrap();
            dumps.push(reference.state_dump());
            forks.push(live.fork());
        }
        let k = ((frac * ops.len() as f64) as usize).min(ops.len());
        let fork = forks[k].clone();
        fork.crash();
        if trim > 0 {
            // Mid-record crash: slice bytes off the newest segment. The
            // cut may land inside a frame or between a write and its
            // commit seal; recovery must fall back to a commit boundary.
            if let Some(name) = fork.file_names().into_iter().rfind(|n| n.ends_with(".seg")) {
                let len = fork.durable_len(&name);
                fork.cut_durable(&name, len.saturating_sub(trim));
            }
        }
        let recovered = Db::builder()
            .durability_config(DurabilityConfig::store(Box::new(fork.clone())).segment_bytes(512))
            .open()
            .unwrap();
        let dump = recovered.state_dump();
        if trim == 0 {
            prop_assert_eq!(&dump, &dumps[k], "clean crash at op boundary {}", k);
        } else {
            prop_assert!(
                dumps.contains(&dump),
                "torn crash (op {}, trim {}) recovered a non-prefix state",
                k,
                trim
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent producers never tear an event in the flight-recorder
    /// ring: at quiescence every retained event is internally consistent
    /// (its checksum field matches its producer/index fields), sequence
    /// numbers are unique, and the loss accounting is exact —
    /// `recorded == len + dropped` with `len == min(total, capacity)`.
    #[test]
    fn event_ring_never_tears_under_concurrency(
        threads in 1usize..=4,
        capacity in 1usize..=16,
        per_thread in 1usize..=48,
    ) {
        use scdb_obs::{EventLog, FieldValue};

        let log = EventLog::with_capacity(capacity);
        log.set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = &log;
                s.spawn(move || {
                    for i in 0..per_thread {
                        log.record(
                            "obs",
                            "tear_probe",
                            &[
                                ("tid", FieldValue::U64(t as u64)),
                                ("i", FieldValue::U64(i as u64)),
                                ("chk", FieldValue::U64((t * 1000 + i) as u64)),
                            ],
                        );
                    }
                });
            }
        });

        let total = (threads * per_thread) as u64;
        prop_assert_eq!(log.recorded(), total);
        let snap = log.snapshot();
        prop_assert_eq!(snap.len() as u64, total.min(capacity as u64));
        prop_assert_eq!(log.dropped(), total - snap.len() as u64);

        let mut seqs = std::collections::HashSet::new();
        for e in &snap {
            prop_assert!(seqs.insert(e.seq), "duplicate seq {}", e.seq);
            prop_assert_eq!(e.subsystem.as_str(), "obs");
            prop_assert_eq!(e.kind.as_str(), "tear_probe");
            let tid = e.field_u64("tid").expect("tid field");
            let i = e.field_u64("i").expect("i field");
            prop_assert!(tid < threads as u64 && i < per_thread as u64);
            prop_assert_eq!(
                e.field_u64("chk"),
                Some(tid * 1000 + i),
                "torn event: fields from different writers interleaved"
            );
        }
    }
}
