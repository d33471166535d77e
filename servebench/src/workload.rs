//! Seeded request bodies for the three workloads, and the expected
//! response bytes for each, computed by the logical oracle.
//!
//! A workload is a small pool of distinct `POST /v1/query` bodies. Every
//! body is generated from the seed alone and serialized here; the server
//! receives nothing but that JSON text. The expected `{"rows":[…]` prefix
//! of each response comes from [`strato_exec::execute_logical`] run on the
//! same in-memory inputs, encoded the way the server encodes result rows.

use std::collections::HashMap;
use std::fmt::Write as _;
use strato_dataflow::spec::{
    CmpOp, FlowSpec, FoldOp, MapUdf, NodeSpec, OpKindSpec, OpSpec, ReduceUdf, SourceSpec,
};
use strato_exec::{execute_logical, Inputs};
use strato_record::{DataSet, Record, Value};
use strato_server::decode::value_to_json;
use strato_server::json::Json;

/// The benchmark's traffic mixes (see `NOTES.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~50k int rows, filter → grouped in-place sum with the combiner on.
    Ingest,
    /// Two ~2k-row inputs, one with a string payload, joined under a
    /// memory cap that makes the Match spill.
    Join,
    /// A 4-source filter + Match chain ending in a count: enumeration and
    /// physical costing dominate.
    Plan,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Join, Workload::Plan];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Join => "join",
            Workload::Plan => "plan",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::TINY`] keeps the self-check fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The `--scale` name.
    pub name: &'static str,
    /// Rows per `ingest` body.
    pub ingest_rows: usize,
    /// Rows per side of a `join` body.
    pub join_rows: usize,
    /// Rows per source of a `plan` body.
    pub plan_rows: usize,
    /// Distinct bodies per workload.
    pub pool: usize,
}

impl Scale {
    /// The measured scale.
    pub const FULL: Scale = Scale {
        name: "full",
        ingest_rows: 50_000,
        join_rows: 2_000,
        plan_rows: 40,
        pool: 8,
    };
    /// The self-check scale.
    pub const TINY: Scale = Scale {
        name: "tiny",
        ingest_rows: 500,
        join_rows: 100,
        plan_rows: 12,
        pool: 2,
    };

    /// Parses a `--scale` name.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::FULL, Scale::TINY]
            .into_iter()
            .find(|sc| sc.name == s)
    }
}

/// Keys of the `ingest` grouping.
const INGEST_KEYS: i64 = 64;
/// Per-query memory cap of the `join` workload: small enough that the
/// Match spills sorted runs on every query.
const JOIN_MEM_BUDGET: u64 = 64 * 1024;
/// Characters of the `join` string payload (URL-like, as in clickstream
/// or TPC-H name columns).
const PAYLOAD_CHARS: usize = 28;
/// Distinct join-key values per `plan` source.
const PLAN_KEYS: i64 = 10;
/// Degree of parallelism every workload requests.
const DOP: usize = 2;

/// One pooled request.
#[derive(Debug, Clone)]
pub struct Query {
    /// The untraced request body.
    pub body: String,
    /// The same request with `"trace": true` in its options.
    pub traced_body: String,
    /// The bytes every response must start with: `{"rows":[…],"stats":`.
    pub expected: Vec<u8>,
    /// Input rows across all sources.
    pub input_rows: usize,
}

/// A workload's pool of distinct requests.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The requests, in the order clients cycle through them.
    pub queries: Vec<Query>,
}

impl Pool {
    /// Generates the pool for `workload` from `seed`. The same seed always
    /// yields byte-identical bodies.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Result<Pool, String> {
        let mut rng = Rng(seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let queries = (0..scale.pool)
            .map(|_| {
                let (flow, inputs, options) = match workload {
                    Workload::Ingest => ingest(&mut rng, scale),
                    Workload::Join => join(&mut rng, scale),
                    Workload::Plan => plan(&mut rng, scale),
                };
                query(&flow, &inputs, &options)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pool { queries })
    }

    /// FNV-1a digest of every body (untraced and traced), for checking
    /// that a seed reproduces its inputs.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for q in &self.queries {
            for b in q.body.bytes().chain(q.traced_body.bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Total bytes of the untraced bodies.
    pub fn body_bytes(&self) -> usize {
        self.queries.iter().map(|q| q.body.len()).sum()
    }
}

/// `s(k, v)` → filter `v ≥ 0` → per-`k` in-place Σv, combiner on.
fn ingest(rng: &mut Rng, scale: Scale) -> (FlowSpec, Inputs, String) {
    let rows = (0..scale.ingest_rows)
        .map(|_| {
            let k = rng.below(INGEST_KEYS as u64) as i64;
            // About 1% of the values are negative, so the filter drops some.
            let v = rng.below(101_000) as i64 - 1_000;
            Record::from_values([Value::Int(k), Value::Int(v)])
        })
        .collect::<DataSet>();
    let flow = FlowSpec::new(NodeSpec::op(
        OpSpec::reduce("sum", &[0], ReduceUdf::fold_inplace(FoldOp::Sum, 1)),
        vec![NodeSpec::op(
            OpSpec::map("nonneg", MapUdf::filter_cmp(1, CmpOp::Ge, 0i64)),
            vec![NodeSpec::source(SourceSpec::new(
                "s",
                &["k", "v"],
                scale.ingest_rows as u64,
            ))],
        )],
    ));
    let inputs = HashMap::from([("s".to_string(), rows)]);
    (flow, inputs, format!("\"dop\":{DOP},\"combine\":true"))
}

/// `a(k, c)` ⋈ `b(k, payload)` on a unique key permuted across the sides.
fn join(rng: &mut Rng, scale: Scale) -> (FlowSpec, Inputs, String) {
    let n = scale.join_rows;
    let a = rng
        .permutation(n)
        .into_iter()
        .map(|k| {
            Record::from_values([
                Value::Int(k as i64),
                Value::Int(rng.below(1_000_000) as i64),
            ])
        })
        .collect::<DataSet>();
    let b = rng
        .permutation(n)
        .into_iter()
        .map(|k| Record::from_values([Value::Int(k as i64), Value::from(rng.payload().as_str())]))
        .collect::<DataSet>();
    let flow = FlowSpec::new(NodeSpec::op(
        OpSpec::match_("ab", &[0], &[0]),
        vec![
            NodeSpec::source(SourceSpec::new("a", &["k", "c"], n as u64)),
            NodeSpec::source(SourceSpec::new("b", &["k", "payload"], n as u64)),
        ],
    ));
    let inputs = HashMap::from([("a".to_string(), a), ("b".to_string(), b)]);
    (
        flow,
        inputs,
        format!("\"dop\":{DOP},\"mem_budget\":{JOIN_MEM_BUDGET}"),
    )
}

/// Four sources `s_i(a, b, v)`, each with its own filter on `v`, chained
/// by `s_i.b = s_{i+1}.a` Matches, then a count grouped on `s_0.a`.
fn plan(rng: &mut Rng, scale: Scale) -> (FlowSpec, Inputs, String) {
    const SOURCES: usize = 4;
    let mut inputs = Inputs::new();
    let mut filtered = Vec::with_capacity(SOURCES);
    for i in 0..SOURCES {
        let name = format!("s{i}");
        let rows = (0..scale.plan_rows)
            .map(|_| {
                Record::from_values([
                    Value::Int(rng.below(PLAN_KEYS as u64) as i64),
                    Value::Int(rng.below(PLAN_KEYS as u64) as i64),
                    Value::Int(rng.below(100) as i64),
                ])
            })
            .collect::<DataSet>();
        inputs.insert(name.clone(), rows);
        // The constants vary across the pool: each keeps 40–80% of rows.
        let cutoff = 20 + rng.below(41) as i64;
        filtered.push(NodeSpec::op(
            OpSpec::map(format!("f{i}"), MapUdf::filter_cmp(2, CmpOp::Lt, cutoff)),
            vec![NodeSpec::source(SourceSpec::new(
                name,
                &["a", "b", "v"],
                scale.plan_rows as u64,
            ))],
        ));
    }
    let mut chain = filtered.remove(0);
    let mut width = 3;
    for (i, right) in filtered.into_iter().enumerate() {
        // Join the previous source's `b` (at `width - 2`) to this one's `a`.
        chain = NodeSpec::op(
            OpSpec::match_(format!("j{}", i + 1), &[width - 2], &[0]),
            vec![chain, right],
        );
        width += 3;
    }
    let flow = FlowSpec::new(NodeSpec::op(
        OpSpec::reduce("count", &[0], ReduceUdf::Count),
        vec![chain],
    ));
    (flow, inputs, format!("\"dop\":{DOP}"))
}

/// Serializes one request (untraced and traced) and computes its
/// expected response prefix with the logical oracle.
fn query(flow: &FlowSpec, inputs: &Inputs, options: &str) -> Result<Query, String> {
    let mut head = String::from("{\"flow\":");
    node_json(&flow.root, &mut head);
    head.push_str(",\"inputs\":{");
    let mut names: Vec<&String> = inputs.keys().collect();
    names.sort();
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            head.push(',');
        }
        let rows: Vec<String> = inputs[name]
            .iter()
            .map(|r| row_json(r).to_string())
            .collect();
        let _ = write!(head, "{}:[{}]", Json::Str(name.clone()), rows.join(","));
    }
    head.push_str("},\"options\":{");
    head.push_str(options);
    let body = format!("{head}}}}}");
    let traced_body = format!("{head},\"trace\":true}}}}");

    let plan = flow.build().map_err(|e| format!("workload flow: {e}"))?;
    let (out, _) = execute_logical(&plan, inputs).map_err(|e| format!("oracle: {e}"))?;
    Ok(Query {
        body,
        traced_body,
        expected: format!("{},\"stats\":", encode_rows(&out.sorted())).into_bytes(),
        input_rows: inputs.values().map(DataSet::len).sum(),
    })
}

/// One record as a JSON array, as the server encodes a result row.
fn row_json(r: &Record) -> Json {
    Json::Arr(r.fields().iter().map(value_to_json).collect())
}

/// Result rows as the server encodes them, in the order given:
/// `{"rows":[…]`. The replay's encode layer calls this too, so it builds
/// the text the way the handler does: one `to_string` per row.
pub fn encode_rows(rows: &[Record]) -> String {
    let mut out = String::from("{\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&row_json(r).to_string());
    }
    out.push(']');
    out
}

/// Writes a flow node in the request format `decode_query` accepts.
/// Covers exactly the operator shapes the workloads use.
fn node_json(node: &NodeSpec, out: &mut String) {
    match node {
        NodeSpec::Source(s) => {
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|f| Json::Str(f.clone()).to_string())
                .collect();
            let _ = write!(
                out,
                "{{\"source\":{{\"name\":{},\"fields\":[{}],\"est_rows\":{}}}}}",
                Json::Str(s.name.clone()),
                fields.join(","),
                s.est_rows
            );
        }
        NodeSpec::Op { op, inputs } => {
            let _ = write!(out, "{{\"op\":{{\"name\":{},", Json::Str(op.name.clone()));
            let list = |k: &[usize]| k.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
            let _ = match &op.kind {
                OpKindSpec::Map(MapUdf::Filter { field, cmp, value }) => write!(
                    out,
                    "\"kind\":\"map\",\"udf\":{{\"fn\":\"filter\",\"field\":{field},\"cmp\":\"{}\",\"value\":{}}}",
                    cmp.keyword(),
                    value_to_json(value)
                ),
                OpKindSpec::Reduce {
                    key,
                    udf: ReduceUdf::Fold { op, field, append },
                } => write!(
                    out,
                    "\"kind\":\"reduce\",\"key\":[{}],\"udf\":{{\"fn\":\"fold\",\"op\":\"{}\",\"field\":{field},\"append\":{append}}}",
                    list(key),
                    op.keyword()
                ),
                OpKindSpec::Reduce {
                    key,
                    udf: ReduceUdf::Count,
                } => write!(
                    out,
                    "\"kind\":\"reduce\",\"key\":[{}],\"udf\":{{\"fn\":\"count\"}}",
                    list(key)
                ),
                OpKindSpec::Match {
                    key_left,
                    key_right,
                } => write!(
                    out,
                    "\"kind\":\"match\",\"key_left\":[{}],\"key_right\":[{}]",
                    list(key_left),
                    list(key_right)
                ),
                other => unreachable!("no workload uses {other:?}"),
            };
            out.push_str("},\"inputs\":[");
            for (i, c) in inputs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node_json(c, out);
            }
            out.push_str("]}");
        }
    }
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A Fisher–Yates permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }

    /// A URL-like ASCII string of [`PAYLOAD_CHARS`] characters.
    fn payload(&mut self) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut s = format!("/p/{:04}/", self.below(10_000));
        while s.len() < PAYLOAD_CHARS {
            s.push(ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bodies_other_seed_other_bodies() {
        for w in Workload::ALL {
            let a = Pool::generate(w, 7, Scale::TINY).unwrap();
            let b = Pool::generate(w, 7, Scale::TINY).unwrap();
            let c = Pool::generate(w, 8, Scale::TINY).unwrap();
            assert_eq!(a.digest(), b.digest(), "{}", w.name());
            assert_ne!(a.digest(), c.digest(), "{}", w.name());
        }
    }

    #[test]
    fn bodies_decode_to_the_generated_flow() {
        for w in Workload::ALL {
            let pool = Pool::generate(w, 3, Scale::TINY).unwrap();
            for q in &pool.queries {
                let doc = Json::parse(&q.body).unwrap();
                let req = strato_server::decode_query(&doc).unwrap();
                assert_eq!(req.dop, DOP);
                assert!(!req.trace);
                let traced = Json::parse(&q.traced_body).unwrap();
                assert!(strato_server::decode_query(&traced).unwrap().trace);
                assert!(q.expected.starts_with(b"{\"rows\":["));
            }
        }
    }
}
