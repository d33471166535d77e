//! The optimizer's physical costing is shared across all enumerated orders
//! of one `optimize`/`best` call. These tests pin that sharing to the
//! per-plan answer:
//!
//! * every ranked alternative's tree and cost equal `best_physical` run on
//!   that plan alone (same cost bits, same rendering);
//! * `Optimizer::best` returns exactly `optimize(..).ranked[0]`;
//! * the ranked lists of five flows at `dop` 2 and 8 hash to digests that
//!   were captured from the per-plan recursive costing this memo replaced,
//!   so a change in any cost bit, strategy or rank order shows up here.

use strato::core::{physical::best_physical, Optimizer, OptimizerReport, PropTable, RankedPlan};
use strato::dataflow::{Plan, PlanNode, PropertyMode};
use strato::workloads::{chain, clickstream, textmining, tpch};

/// The five flows: name, plan, property mode, enumerated orders and the
/// distinct subtrees among them.
fn flows() -> Vec<(&'static str, Plan, PropertyMode, usize, usize)> {
    vec![
        (
            "q7",
            tpch::q7_plan(tpch::TpchScale::small()),
            PropertyMode::Sca,
            2860,
            9222,
        ),
        (
            "q15",
            tpch::q15_plan(tpch::TpchScale::small()),
            PropertyMode::Sca,
            3,
            10,
        ),
        (
            "clickstream",
            clickstream::plan(clickstream::ClickScale::small()),
            PropertyMode::Manual,
            4,
            16,
        ),
        (
            "textmining",
            textmining::plan(textmining::TextScale::small()),
            PropertyMode::Sca,
            24,
            91,
        ),
        ("chain4", chain::plan(40), PropertyMode::Sca, 1105, 3883),
    ]
}

/// FNV-1a over every ranked entry's canonical form, cost bits and
/// physical rendering, in rank order.
fn digest(report: &OptimizerReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &report.ranked {
        feed(r.plan.canonical().as_bytes());
        feed(&r.cost.to_bits().to_le_bytes());
        feed(r.phys.render(&r.plan).as_bytes());
    }
    h
}

/// Digests of `optimize()`'s ranked list, captured from the per-plan
/// recursive costing before the shared memo replaced it.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("q7", 2, 0xfdb32e2191680c40),
    ("q7", 8, 0xe9968edac665caff),
    ("q15", 2, 0xab4c236476fd943c),
    ("q15", 8, 0x364ff5c9b5895cc8),
    ("clickstream", 2, 0xb158a2b42e7a6aae),
    ("clickstream", 8, 0x82b3eb51ecd702f9),
    ("textmining", 2, 0x7b522bdc6bdeab62),
    ("textmining", 8, 0x7b522bdc6bdeab62),
    ("chain4", 2, 0xb7354a6daa0acb22),
    ("chain4", 8, 0x19a166b0e7992e56),
];

fn nodes(n: &PlanNode) -> usize {
    1 + n.children.iter().map(|c| nodes(c)).sum::<usize>()
}

fn same(a: &RankedPlan, b: &RankedPlan) {
    assert_eq!(a.plan.canonical(), b.plan.canonical());
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.phys.total_cost.to_bits(), b.phys.total_cost.to_bits());
    assert_eq!(a.phys.render(&a.plan), b.phys.render(&b.plan));
}

#[test]
fn ranked_lists_match_the_pinned_digests() {
    let mut actual = Vec::new();
    for (name, plan, mode, n, _) in flows() {
        for dop in [2, 8] {
            let report = Optimizer::new(mode).with_dop(dop).optimize(&plan);
            assert_eq!(report.n_enumerated, n, "{name}");
            actual.push((name, dop, digest(&report)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, d, h)| format!("    (\"{n}\", {d}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "actual digests:\n{table}");
}

#[test]
fn every_shared_alternative_equals_its_own_best_physical() {
    for (name, plan, mode, _, subtrees) in flows() {
        let props = PropTable::build(&plan, mode);
        let opt = Optimizer::new(mode).with_dop(4);
        let report = opt.optimize(&plan);
        // Every order has as many nodes as the original; shared subtrees
        // (at least the sources) are costed once.
        assert_eq!(report.subtrees_costed, subtrees, "{name}");
        assert!(subtrees < report.n_enumerated * nodes(&plan.root), "{name}");
        for r in &report.ranked {
            let alone = best_physical(&r.plan, &props, &opt.weights, opt.dop);
            assert_eq!(r.cost.to_bits(), alone.total_cost.to_bits(), "{name}");
            assert_eq!(r.phys.render(&r.plan), alone.render(&r.plan), "{name}");
            assert_eq!(r.phys.root.cost.to_bits(), alone.root.cost.to_bits());
        }
    }
}

#[test]
fn best_is_the_first_ranked_plan() {
    for (_, plan, mode, _, _) in flows() {
        for dop in [2, 8] {
            let opt = Optimizer::new(mode).with_dop(dop);
            let report = opt.optimize(&plan);
            let best = opt.best(&plan);
            same(&best, &report.ranked[0]);
            // The physical tree realizes the winner's own plan nodes.
            assert!(std::sync::Arc::ptr_eq(
                &best.phys.root.logical,
                &best.plan.root
            ));
        }
    }
}
