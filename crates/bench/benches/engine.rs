//! Execution-engine benchmarks: record wire encoding, hash partitioning
//! primitives, interpreter throughput, end-to-end plan execution, and
//! multi-query throughput on the shared engine runtime.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hash::Hasher;
use std::time::Instant;
use strato_core::{cost::CostWeights, physical::best_physical, PropTable};
use strato_dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato_exec::{execute, execute_logical, EngineRuntime, Inputs, RuntimeOptions};
use strato_ir::interp::{Interp, Invocation, Layout};
use strato_ir::{FuncBuilder, UdfKind};
use strato_record::hash::{fx_hash, FxHasher};
use strato_record::{wire, BatchBuilder, DataSet, Record, Value};
use strato_workloads::{tpch, udfs};

/// A grouped-aggregate workload with heavy key duplication: `rows`
/// two-int records over `keys` distinct keys into an **in-place sum** —
/// the combinable aggregate. The optimizer inserts the pre-ship combiner,
/// so only one partial per key per partition crosses the Partition ship
/// and the final reduce streams over partials instead of buffering.
fn grouped_agg_workload(rows: usize, keys: usize) -> (Plan, Inputs) {
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], rows as u64).with_bytes_per_row(22));
    let r = p.reduce(
        "sum",
        &[0],
        udfs::sum_group_inplace(2, 1),
        CostHints::default().with_distinct_keys(keys as u64),
        s,
    );
    let plan = p.finish(r).unwrap().bind().unwrap();

    let ds: DataSet = (0..rows)
        .map(|i| Record::from_values([Value::Int((i % keys) as i64), Value::Int(i as i64)]))
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, inputs)
}

/// A shuffle-bound workload: `rows` two-field records (int key with
/// `keys` distinct values, ~32-byte string payload) into a first-of-group
/// reduce. The reduce forces a hash repartition of the full input.
fn shuffle_workload(rows: usize, keys: usize) -> (Plan, Inputs) {
    let mut b = FuncBuilder::new("first", UdfKind::Group, vec![2]);
    let it = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it, nil);
    let or = b.copy(first);
    b.emit(or);
    b.place(nil);
    b.ret();
    let udf = b.finish().unwrap();

    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "payload"], rows as u64).with_bytes_per_row(45));
    let r = p.reduce(
        "first",
        &[0],
        udf,
        CostHints::default().with_distinct_keys(keys as u64),
        s,
    );
    let plan = p.finish(r).unwrap().bind().unwrap();

    let ds: DataSet = (0..rows)
        .map(|i| {
            Record::from_values([
                Value::Int((i % keys) as i64),
                Value::str(format!("payload-{:027}", i)),
            ])
        })
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, inputs)
}

fn sample_record() -> Record {
    Record::from_values([
        Value::Int(42),
        Value::str("GENE_0042 binding assay"),
        Value::Float(3.25),
        Value::Null,
        Value::Bool(true),
        Value::Int(19_950_101),
    ])
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");

    let rec = sample_record();
    g.bench_function("wire_encode", |b| {
        let mut buf = BytesMut::with_capacity(256);
        b.iter(|| {
            buf.clear();
            wire::encode_record(&rec, &mut buf)
        })
    });
    g.bench_function("wire_roundtrip", |b| {
        b.iter(|| {
            let bytes = wire::encode_to_bytes(&rec);
            wire::decode_record(&mut bytes.clone()).unwrap()
        })
    });
    g.bench_function("fx_hash_key", |b| {
        let key = vec![Value::Int(7), Value::str("FRANCE")];
        b.iter(|| fx_hash(&key))
    });

    // Interpreter throughput on a filter UDF.
    let filter = udfs::filter_range(6, 4, 19_950_101, 19_951_231);
    let layout = Layout::local(&filter);
    let interp = Interp::default();
    g.bench_function("interp_filter_call", |b| {
        let r = Record::from_values([
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Int(4),
            Value::Int(19_950_615),
            Value::Int(5),
        ]);
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            interp.run(&filter, Invocation::Record(&r), &layout, &mut out)
        })
    });

    // End-to-end logical execution of Q15.
    let scale = tpch::TpchScale::tiny();
    let plan = tpch::q15_plan(scale);
    let inputs: Inputs = tpch::generate(scale, 3).into_iter().collect();
    let mut g2 = {
        g.finish();
        c.benchmark_group("engine_e2e")
    };
    g2.sample_size(10);
    g2.bench_function("q15_logical_tiny", |b| {
        b.iter(|| execute_logical(&plan, &inputs).unwrap().0.len())
    });
    // Parallel physical execution: exercises the ship strategies
    // (repartition + broadcast) and the per-partition worker path.
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 4);
    g2.bench_function("q15_physical_tiny_dop4", |b| {
        b.iter(|| execute(&plan, &phys, &inputs, 4).unwrap().0.len())
    });

    // Shuffle-bound execution: 50k wide-ish records hash-repartitioned into
    // a cheap reduce at dop 4. Dominated by the Partition ship path and
    // group formation, not UDF interpretation.
    let (sh_plan, sh_inputs) = shuffle_workload(50_000, 2_000);
    let sh_props = PropTable::build(&sh_plan, PropertyMode::Sca);
    let sh_phys = best_physical(&sh_plan, &sh_props, &CostWeights::default(), 4);
    g2.bench_function("shuffle_50k_dop4", |b| {
        b.iter(|| execute(&sh_plan, &sh_phys, &sh_inputs, 4).unwrap().0.len())
    });

    // Grouped-aggregate shuffle with high key duplication (50k rows, 64
    // keys): exercises the combiner path end-to-end — streaming pre-ship
    // partial aggregation plus the StreamAgg local strategy.
    let (ga_plan, ga_inputs) = grouped_agg_workload(50_000, 64);
    let ga_props = PropTable::build(&ga_plan, PropertyMode::Sca);
    let ga_phys = best_physical(&ga_plan, &ga_props, &CostWeights::default(), 4);
    assert!(ga_phys.root.combine, "combiner must be planned");
    g2.bench_function("grouped_agg_50k_dop4", |b| {
        b.iter(|| execute(&ga_plan, &ga_phys, &ga_inputs, 4).unwrap().0.len())
    });
    g2.finish();

    // Out-of-core execution: the same workloads starved to a budget far
    // below their working set, so every blocking operator spills sorted
    // runs and finishes through the loser-tree merge (and the combiner
    // flushes partials downstream). Measures the spill write/merge path
    // end-to-end against the in-memory numbers above.
    let mut g3 = c.benchmark_group("engine_ooc");
    g3.sample_size(10);
    let starved = |budget: u64| strato_exec::ExecOptions {
        mem_budget: Some(budget),
        ..strato_exec::ExecOptions::default()
    };
    // ~2.8 MB of shuffle state squeezed through 256 KiB: roughly a dozen
    // spill runs per partition on the first-of-group reduce.
    let ooc_opts = starved(256 * 1024);
    g3.bench_function("shuffle_50k_dop4_mem256k", |b| {
        b.iter(|| {
            let (out, stats) =
                strato_exec::execute_with(&sh_plan, &sh_phys, &sh_inputs, 4, &ooc_opts).unwrap();
            assert!(stats.spill_snapshot().2 > 0, "bench must actually spill");
            out.len()
        })
    });
    // The combinable aggregate under a 256-byte budget — below even one
    // partition's final partial table (~16 keys × 22 bytes), so the
    // StreamAgg deterministically spills its table to disk while the
    // pre-ship combiner flushes partials downstream: the
    // degenerate-memory path of the combiner subsystem.
    let ooc_agg_opts = starved(256);
    g3.bench_function("grouped_agg_50k_dop4_mem256b", |b| {
        b.iter(|| {
            let (out, stats) =
                strato_exec::execute_with(&ga_plan, &ga_phys, &ga_inputs, 4, &ooc_agg_opts)
                    .unwrap();
            assert!(stats.spill_snapshot().2 > 0, "bench must actually spill");
            out.len()
        })
    });
    g3.finish();

    // Tracing overhead A/B: the same shuffle workload untraced and with
    // a live recorder capturing every task/ship span. Pins the
    // `ExecOptions::trace` overhead contract — one `Option` check when
    // off, bounded lock-light recording when on — via bench-smoke's
    // regression gate on both sides of the pair.
    let mut g_tr = c.benchmark_group("engine_trace");
    g_tr.sample_size(10);
    g_tr.bench_function("shuffle_50k_dop4_untraced", |b| {
        b.iter(|| {
            let opts = strato_exec::ExecOptions::default();
            strato_exec::execute_with(&sh_plan, &sh_phys, &sh_inputs, 4, &opts)
                .unwrap()
                .0
                .len()
        })
    });
    g_tr.bench_function("shuffle_50k_dop4_traced", |b| {
        b.iter(|| {
            let recorder = strato_exec::TraceRecorder::new(1);
            let opts = strato_exec::ExecOptions {
                trace: Some(recorder.clone()),
                ..strato_exec::ExecOptions::default()
            };
            let (out, _) =
                strato_exec::execute_with(&sh_plan, &sh_phys, &sh_inputs, 4, &opts).unwrap();
            assert!(!recorder.spans().is_empty(), "bench must actually record");
            out.len()
        })
    });
    g_tr.finish();

    // Columnar kernels: the micro pair isolates the vectorized key-hash
    // kernel against the row-at-a-time hasher on the shuffle workload's
    // own 50k-row data; the e2e bench runs the full shuffle plan.
    let mut g4 = c.benchmark_group("engine_columnar");
    let src = sh_inputs["s"].records();
    let mut builder = BatchBuilder::new(2);
    for r in src {
        builder.push_record(r);
    }
    let cb = builder.finish();
    let keys = [0usize];
    g4.bench_function("key_hash_columnar_50k", |b| {
        let mut hashes = Vec::new();
        b.iter(|| {
            cb.key_hash_into(&keys, &mut hashes);
            hashes[0]
        })
    });
    g4.bench_function("key_hash_row_50k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for r in src {
                let mut h = FxHasher::default();
                std::hash::Hash::hash(r.field(0), &mut h);
                acc ^= h.finish();
            }
            acc
        })
    });
    g4.sample_size(10);
    g4.bench_function("shuffle_50k_dop4_columnar", |b| {
        b.iter(|| execute(&sh_plan, &sh_phys, &sh_inputs, 4).unwrap().0.len())
    });
    g4.finish();

    // Multi-query throughput: `c` identical grouped-aggregate queries
    // submitted simultaneously to ONE shared EngineRuntime (one worker
    // pool, one memory budget), swept over the concurrency levels the
    // admission gate actually sees. `isolated_c4` is four free-function
    // queries, each on its own per-call runtime (a private worker pool),
    // so shared_c4 vs isolated_c4 measures what pooling buys under
    // oversubscription. Every query's result is asserted byte-identical
    // to a precomputed serial reference on every iteration.
    let mut g5 = c.benchmark_group("engine_throughput");
    g5.sample_size(10);
    let (tp_plan, tp_inputs) = grouped_agg_workload(30_000, 64);
    let tp_props = PropTable::build(&tp_plan, PropertyMode::Sca);
    let tp_phys = best_physical(&tp_plan, &tp_props, &CostWeights::default(), 2);
    let tp_ref = execute(&tp_plan, &tp_phys, &tp_inputs, 2).unwrap().0;
    let rt = EngineRuntime::new(RuntimeOptions::default());
    let run_shared = |conc: usize| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..conc)
                .map(|_| {
                    s.spawn(|| {
                        let out = rt.execute(&tp_plan, &tp_phys, &tp_inputs, 2).unwrap().0;
                        assert_eq!(out, tp_ref, "shared-pool result must be byte-identical");
                        out.len()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        })
    };
    let run_isolated = |conc: usize| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..conc)
                .map(|_| {
                    s.spawn(|| {
                        let out = execute(&tp_plan, &tp_phys, &tp_inputs, 2).unwrap().0;
                        assert_eq!(out, tp_ref);
                        out.len()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        })
    };
    for conc in [1usize, 2, 4, 8] {
        g5.bench_function(&format!("shared_c{conc}"), |b| b.iter(|| run_shared(conc)));
    }
    g5.bench_function("isolated_c4", |b| b.iter(|| run_isolated(4)));
    g5.finish();

    // Fixed-round capture of queries/sec and per-query latency
    // percentiles for the acceptance comparison (shared pooling must beat
    // per-query pools at c=4). Not a gated bench — the THROUGHPUT lines
    // are informational alongside the BENCH_JSON medians above.
    for (label, shared) in [("shared c=4", true), ("isolated c=4", false)] {
        const ROUNDS: usize = 15;
        const CONC: usize = 4;
        let mut lat_ns: Vec<u64> = Vec::with_capacity(ROUNDS * CONC);
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..CONC)
                    .map(|_| {
                        let rt = &rt;
                        let (tp_plan, tp_phys, tp_inputs) = (&tp_plan, &tp_phys, &tp_inputs);
                        s.spawn(move || {
                            let q0 = Instant::now();
                            let out = if shared {
                                rt.execute(tp_plan, tp_phys, tp_inputs, 2).unwrap().0
                            } else {
                                execute(tp_plan, tp_phys, tp_inputs, 2).unwrap().0
                            };
                            criterion::black_box(out.len());
                            q0.elapsed().as_nanos() as u64
                        })
                    })
                    .collect();
                for h in handles {
                    lat_ns.push(h.join().unwrap());
                }
            });
        }
        let wall = t0.elapsed().as_secs_f64();
        lat_ns.sort_unstable();
        let qps = (ROUNDS * CONC) as f64 / wall;
        let p50 = lat_ns[lat_ns.len() / 2] as f64 / 1e6;
        let p99 = lat_ns[(lat_ns.len() * 99 / 100).min(lat_ns.len() - 1)] as f64 / 1e6;
        println!("THROUGHPUT {label}: qps={qps:.1} p50_ms={p50:.2} p99_ms={p99:.2}");
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
