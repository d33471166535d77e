//! A join-chain flow whose optimization, not its execution, dominates.
//!
//! Four sources `s_i(a, b, v)`, each with its own filter on `v`, chained by
//! `s_i.b = s_{i+1}.a` Matches and ending in a count grouped on `s_0.a`.
//! The filters commute with the joins and the joins rotate, so the
//! optimizer enumerates 1,105 logical orders of a tree with 12 nodes; this
//! is the shape of the served-query benchmark's `plan` workload, declared
//! through a [`FlowSpec`] as a network client would.

use strato_dataflow::spec::{CmpOp, FlowSpec, MapUdf, NodeSpec, OpSpec, ReduceUdf, SourceSpec};
use strato_dataflow::Plan;

/// Number of chained sources.
pub const SOURCES: usize = 4;

/// The flow specification, with `rows` estimated rows per source.
pub fn flow(rows: u64) -> FlowSpec {
    let mut filtered = (0..SOURCES).map(|i| {
        NodeSpec::op(
            OpSpec::map(format!("f{i}"), MapUdf::filter_cmp(2, CmpOp::Lt, 50i64)),
            vec![NodeSpec::source(SourceSpec::new(
                format!("s{i}"),
                &["a", "b", "v"],
                rows,
            ))],
        )
    });
    let mut chain = filtered.next().expect("at least one source");
    let mut width = 3;
    for (i, right) in filtered.enumerate() {
        // Join the previous source's `b` (at `width - 2`) to this one's `a`.
        chain = NodeSpec::op(
            OpSpec::match_(format!("j{}", i + 1), &[width - 2], &[0]),
            vec![chain, right],
        );
        width += 3;
    }
    FlowSpec::new(NodeSpec::op(
        OpSpec::reduce("count", &[0], ReduceUdf::Count),
        vec![chain],
    ))
}

/// The bound plan of [`flow`].
pub fn plan(rows: u64) -> Plan {
    flow(rows).build().expect("the chain flow is valid")
}
