//! Property tests for the record data model: bag-equality laws, attribute
//! set algebra, and wire-format round-trips.

use bytes::BytesMut;
use proptest::prelude::*;
use strato::record::{wire, AttrId, AttrSet, DataSet, Record, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 ⟨⟩]{0,12}".prop_map(Value::str),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Record::new)
}

fn arb_dataset() -> impl Strategy<Value = DataSet> {
    prop::collection::vec(arb_record(), 0..20).prop_map(DataSet::from_records)
}

fn arb_attrset() -> impl Strategy<Value = AttrSet> {
    prop::collection::btree_set(0u32..200, 0..20).prop_map(|s| s.into_iter().map(AttrId).collect())
}

proptest! {
    #[test]
    fn bag_equality_is_permutation_invariant(ds in arb_dataset(), seed in any::<u64>()) {
        let mut shuffled = ds.records().to_vec();
        // Deterministic pseudo-shuffle.
        let n = shuffled.len();
        if n > 1 {
            for i in 0..n {
                let j = (seed as usize).wrapping_mul(i + 1) % n;
                shuffled.swap(i, j);
            }
        }
        prop_assert_eq!(&ds, &DataSet::from_records(shuffled));
    }

    #[test]
    fn bag_equality_detects_extra_record(ds in arb_dataset(), extra in arb_record()) {
        let mut bigger = ds.records().to_vec();
        bigger.push(extra);
        prop_assert_ne!(&ds, &DataSet::from_records(bigger));
    }

    #[test]
    fn sorted_is_a_canonical_form(ds in arb_dataset()) {
        let a = ds.sorted();
        let rev: DataSet = ds.records().iter().rev().cloned().collect();
        prop_assert_eq!(a, rev.sorted());
    }

    #[test]
    fn wire_roundtrip_preserves_records(
        r in arb_record(),
        seq in prop::collection::vec(arb_record(), 0..16),
    ) {
        let bytes = wire::encode_to_bytes(&r);
        let back = wire::decode_record(&mut bytes.clone()).unwrap();
        prop_assert_eq!(r, back);
        // A sequence through the length-framing helpers that spill files
        // use: every frame decodes to its record, in order, with nothing
        // left over.
        let mut buf = BytesMut::new();
        let mut framed = 0;
        for r in &seq {
            framed += wire::encode_framed(r, &mut buf);
        }
        prop_assert_eq!(framed, buf.len());
        let mut rest = buf.freeze();
        for r in &seq {
            prop_assert_eq!(&wire::decode_framed(&mut rest).unwrap(), r);
        }
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        if a.cmp(&b) == Ordering::Less {
            prop_assert_eq!(b.cmp(&a), Ordering::Greater);
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq agrees with cmp.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }

    #[test]
    fn attrset_union_laws(a in arb_attrset(), b in arb_attrset(), x in 0u32..200) {
        let u = a.union(&b);
        let id = AttrId(x);
        prop_assert_eq!(u.contains(id), a.contains(id) || b.contains(id));
        // Commutativity & idempotence.
        prop_assert_eq!(&u, &b.union(&a));
        prop_assert_eq!(&u.union(&a), &u);
        prop_assert_eq!(u.len(), u.iter().count());
    }

    #[test]
    fn attrset_intersection_difference_laws(a in arb_attrset(), b in arb_attrset(), x in 0u32..200) {
        let i = a.intersection(&b);
        let d = a.difference(&b);
        let id = AttrId(x);
        prop_assert_eq!(i.contains(id), a.contains(id) && b.contains(id));
        prop_assert_eq!(d.contains(id), a.contains(id) && !b.contains(id));
        // a = (a ∩ b) ∪ (a \ b)
        prop_assert_eq!(&i.union(&d), &a);
        // disjointness and subset coherence
        prop_assert_eq!(a.is_disjoint(&b), i.is_empty());
        prop_assert!(i.is_subset(&a) && i.is_subset(&b));
        prop_assert!(d.is_subset(&a) && d.is_disjoint(&b));
    }

    #[test]
    fn record_merge_absent_prefers_left(a in arb_record(), b in arb_record()) {
        let mut m = a.clone();
        m.merge_absent(&b);
        for i in 0..m.arity() {
            if !a.field(i).is_null() {
                prop_assert_eq!(m.field(i), a.field(i));
            } else {
                prop_assert_eq!(m.field(i), b.field(i));
            }
        }
    }
}
