//! The per-layer ledger: replays a pooled request through the public
//! functions the query handler calls, one layer at a time, and folds the
//! Chrome trace of served `"trace": true` queries into engine sub-layers.

use crate::workload::{encode_rows, Query};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;
use strato_core::Optimizer;
use strato_dataflow::PropertyMode;
use strato_exec::{EngineRuntime, RuntimeOptions};
use strato_server::decode_query;
use strato_server::http::read_request;
use strato_server::json::Json;

/// One replay of one request: the time of each layer in milliseconds and
/// the counters the layers return.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Named values, in the ledger's units (see [`crate::PER_LAYER`]).
    pub values: HashMap<&'static str, f64>,
    /// Whether the encoded rows equal the oracle's.
    pub correct: bool,
}

/// The replay's timed layers, in call order; their sum is compared with
/// the replay's wall time.
const TIMED_LAYERS: [&str; 8] = [
    "http.read_ms",
    "json.parse_ms",
    "decode.ms",
    "spec.build_ms",
    "optimizer.ms",
    "exec.ms",
    "sort.ms",
    "encode.ms",
];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays `q` once. `listener` is a loopback socket the request is
/// written to, so `read_request` reads it as the server would.
pub fn replay(listener: &TcpListener, q: &Query) -> Result<Replay, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let wire = format!(
        "POST /v1/query HTTP/1.1\r\nhost: strato\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        q.body.len(),
        q.body
    );
    // A fresh runtime per replay (same defaults as the server's), so its
    // snapshot after the run describes this query alone.
    let runtime = EngineRuntime::new(RuntimeOptions::default());
    let mut v: HashMap<&'static str, f64> = HashMap::new();

    let (stream, writer) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> std::io::Result<TcpStream> {
            let mut c = TcpStream::connect(addr)?;
            c.write_all(wire.as_bytes())?;
            Ok(c)
        });
        let accepted = listener.accept().map(|(s, _)| s);
        (accepted, writer.join().expect("replay writer panicked"))
    });
    let mut stream = stream.map_err(|e| format!("replay accept: {e}"))?;
    writer.map_err(|e| format!("replay write: {e}"))?;

    let wall = Instant::now();
    let t = Instant::now();
    let req = read_request(&mut stream).map_err(|e| format!("read_request: {e}"))?;
    v.insert("http.read_ms", ms_since(t));

    let t = Instant::now();
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("parse: {e}"))?;
    let parse_ms = ms_since(t);
    v.insert("json.parse_ms", parse_ms);
    v.insert(
        "json.parse_ns_per_byte",
        parse_ms * 1e6 / req.body.len() as f64,
    );

    let t = Instant::now();
    let query = decode_query(&doc).map_err(|e| e.to_string())?;
    let decode_ms = ms_since(t);
    v.insert("decode.ms", decode_ms);
    v.insert(
        "decode.ns_per_row",
        decode_ms * 1e6 / q.input_rows.max(1) as f64,
    );

    let t = Instant::now();
    let plan = query.flow.build().map_err(|e| e.to_string())?;
    v.insert("spec.build_ms", ms_since(t));

    // `Optimizer::best` is `optimize` + taking the winner; the report is
    // dropped inside the timed region, as it is in the handler.
    let t = Instant::now();
    let (best, plans, props, enumerate, physical) = {
        let mut report = Optimizer::new(PropertyMode::Sca)
            .with_dop(query.dop)
            .optimize(&plan);
        let n = report.n_enumerated;
        let (p, e, ph) = (
            report.property_derivation,
            report.enumeration,
            report.physical,
        );
        (report.ranked.swap_remove(0), n, p, e, ph)
    };
    let opt_ms = ms_since(t);
    v.insert("optimizer.ms", opt_ms);
    v.insert("optimizer.props_ms", props.as_secs_f64() * 1e3);
    v.insert("optimizer.enumerate_ms", enumerate.as_secs_f64() * 1e3);
    v.insert("optimizer.physical_ms", physical.as_secs_f64() * 1e3);
    v.insert("optimizer.plans", plans as f64);
    v.insert("optimizer.us_per_plan", opt_ms * 1e3 / plans.max(1) as f64);

    let t = Instant::now();
    let (out, stats) = runtime
        .execute_with(
            &best.plan,
            &best.phys,
            &query.inputs,
            query.dop,
            &query.exec,
        )
        .map_err(|e| format!("execute: {e}"))?;
    v.insert("exec.ms", ms_since(t));
    let snap = runtime.snapshot();
    let tot = stats.totals();
    let op_ns: u64 = stats.op_snapshots().iter().map(|o| o.nanos).sum();
    v.insert("exec.op_ms", op_ns as f64 / 1e6);
    v.insert("exec.udf_calls", tot.udf_calls as f64);
    v.insert("exec.interp_steps", tot.interp_steps as f64);
    v.insert("exec.tasks", snap.tasks_executed as f64);
    v.insert("exec.records_shipped", tot.records_shipped as f64);
    v.insert("exec.bytes_shipped", tot.bytes_shipped as f64);
    // Out/in of the pre-ship combiner; 1 (no reduction) when it saw no rows.
    v.insert(
        "exec.preagg_ratio",
        if tot.records_preagg_in == 0 {
            1.0
        } else {
            tot.records_preagg_out as f64 / tot.records_preagg_in as f64
        },
    );
    v.insert("exec.spilled_bytes", tot.spilled_bytes as f64);
    v.insert("exec.spill_runs", tot.spill_runs as f64);
    v.insert("exec.peak_resident_bytes", snap.mem_peak_resident as f64);
    v.insert("exec.grant_wait_ms", snap.grant_wait.sum_ns as f64 / 1e6);

    let t = Instant::now();
    let rows = out.sorted();
    v.insert("sort.ms", ms_since(t));

    let t = Instant::now();
    let encoded = encode_rows(&rows);
    v.insert("encode.ms", ms_since(t));
    v.insert("encode.bytes", encoded.len() as f64);

    let wall_ms = ms_since(wall);
    let accounted: f64 = TIMED_LAYERS.iter().map(|k| v[k]).sum();
    v.insert("replay.ms", wall_ms);
    v.insert("replay.unaccounted_frac", (wall_ms - accounted) / wall_ms);
    let correct = q.expected.strip_suffix(b",\"stats\":") == Some(encoded.as_bytes());
    Ok(Replay { values: v, correct })
}

/// Engine time per trace category for one traced query, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceSplit {
    /// Task-step time not covered by any ship/spill/merge/mem span on the
    /// same lane.
    pub task_self: f64,
    /// Time in `ship` spans.
    pub ship: f64,
    /// Time in `spill` spans.
    pub spill: f64,
    /// Time in `merge` spans.
    pub merge: f64,
    /// Time in `mem` spans.
    pub mem: f64,
}

/// `(start, end)` spans of one lane, in trace microseconds.
type Intervals = Vec<(f64, f64)>;

/// Folds the `"trace"` member of a traced query response into per
/// category totals.
pub fn trace_split(response: &[u8]) -> Result<TraceSplit, String> {
    let text = std::str::from_utf8(response).map_err(|e| e.to_string())?;
    // The trace document sits between `"trace":` and `,"explain":`; parse
    // only it, not the result rows in front of it.
    let start = text.find(",\"trace\":").ok_or("response has no trace")? + ",\"trace\":".len();
    let end = text
        .rfind(",\"explain\":")
        .ok_or("response has no explain")?;
    let doc = Json::parse(&text[start..end]).map_err(|e| format!("trace: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace has no traceEvents")?;

    // Per lane: task intervals and the intervals of every other span.
    let mut lanes: HashMap<i64, (Intervals, Intervals)> = HashMap::new();
    let mut split = TraceSplit::default();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let num = |k: &str| {
            e.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("span without {k}"))
        };
        let (ts, dur) = (num("ts")?, num("dur")?);
        let tid = e
            .get("tid")
            .and_then(Json::as_i64)
            .ok_or("span without tid")?;
        let lane = lanes.entry(tid).or_default();
        let ms = dur / 1e3;
        match e.get("cat").and_then(Json::as_str) {
            Some("task") => {
                lane.0.push((ts, ts + dur));
                split.task_self += ms;
            }
            Some(cat) => {
                lane.1.push((ts, ts + dur));
                match cat {
                    "ship" => split.ship += ms,
                    "spill" => split.spill += ms,
                    "merge" => split.merge += ms,
                    "mem" => split.mem += ms,
                    _ => {}
                }
            }
            None => return Err("span without cat".to_string()),
        }
    }
    for (tasks, mut children) in lanes.into_values() {
        split.task_self -= covered(&tasks, &mut children) / 1e3;
    }
    Ok(split)
}

/// Microseconds of `tasks` covered by the union of `children`.
fn covered(tasks: &[(f64, f64)], children: &mut [(f64, f64)]) -> f64 {
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut union: Vec<(f64, f64)> = Vec::new();
    for &(s, e) in children.iter() {
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => union.push((s, e)),
        }
    }
    tasks
        .iter()
        .flat_map(|&(ts, te)| {
            union
                .iter()
                .map(move |&(s, e)| (te.min(e) - ts.max(s)).max(0.0))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_self_time_excludes_nested_spans_once() {
        let resp = br#"{"rows":[],"stats":{},"query_id":1,"trace":{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"w"}},
            {"ph":"X","pid":1,"tid":0,"name":"t","cat":"task","ts":0.0,"dur":100.0,"args":{}},
            {"ph":"X","pid":1,"tid":0,"name":"s","cat":"spill","ts":10.0,"dur":40.0,"args":{}},
            {"ph":"X","pid":1,"tid":0,"name":"m","cat":"merge","ts":20.0,"dur":10.0,"args":{}},
            {"ph":"X","pid":1,"tid":1,"name":"sh","cat":"ship","ts":5.0,"dur":5.0,"args":{}},
            {"ph":"X","pid":1,"tid":1,"name":"t","cat":"task","ts":0.0,"dur":50.0,"args":{}}
        ]},"explain":"x"}"#;
        let s = trace_split(resp).unwrap();
        // Lane 0: 100 − 40 (merge nests in spill); lane 1: 50 − 5.
        assert!((s.task_self - 0.105).abs() < 1e-9, "{s:?}");
        assert!((s.spill - 0.040).abs() < 1e-9);
        assert!((s.merge - 0.010).abs() < 1e-9);
        assert!((s.ship - 0.005).abs() < 1e-9);
        assert_eq!(s.mem, 0.0);
    }
}
