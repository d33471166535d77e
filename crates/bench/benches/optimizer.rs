//! End-to-end optimizer benchmarks: property derivation + enumeration +
//! physical costing for each evaluation workload.

use criterion::{criterion_group, criterion_main, Criterion};
use strato_core::{cost::CostWeights, physical::best_physical, Optimizer, PropTable};
use strato_dataflow::PropertyMode;
use strato_workloads::{chain, clickstream, textmining, tpch};

fn bench_optimizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer");
    g.sample_size(10);

    let q15 = tpch::q15_plan(tpch::TpchScale::small());
    g.bench_function("optimize_q15", |b| {
        let opt = Optimizer::new(PropertyMode::Sca);
        b.iter(|| opt.optimize(&q15).n_enumerated)
    });

    let cs = clickstream::plan(clickstream::ClickScale::small());
    g.bench_function("optimize_clickstream", |b| {
        let opt = Optimizer::new(PropertyMode::Manual);
        b.iter(|| opt.optimize(&cs).n_enumerated)
    });

    let tm = textmining::plan(textmining::TextScale::small());
    g.bench_function("optimize_textmining", |b| {
        let opt = Optimizer::new(PropertyMode::Sca);
        b.iter(|| opt.optimize(&tm).n_enumerated)
    });

    // The served-query benchmark's `plan` shape: 1,105 orders over 3,883
    // distinct subtrees, all costed through one shared memo.
    let chain4 = chain::plan(40);
    g.bench_function("optimize_chain4_dop2", |b| {
        let opt = Optimizer::new(PropertyMode::Sca).with_dop(2);
        b.iter(|| opt.optimize(&chain4).n_enumerated)
    });

    // The server's call: cost all 2,860 Q7 orders, build only the winner.
    let q7 = tpch::q7_plan(tpch::TpchScale::small());
    g.bench_function("best_q7", |b| {
        let opt = Optimizer::new(PropertyMode::Sca);
        b.iter(|| opt.best(&q7).cost)
    });

    // Physical optimization of one logical order on its own (a fresh memo
    // per call, as `best_physical` runs it).
    let props = PropTable::build(&q7, PropertyMode::Sca);
    g.bench_function("physical_q7_single_order", |b| {
        b.iter(|| best_physical(&q7, &props, &CostWeights::default(), 8).total_cost)
    });

    g.finish();
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
