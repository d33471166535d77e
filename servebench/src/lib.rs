//! Served-query benchmark for `strato-server`.
//!
//! The server runs in process on loopback; one workload drives it with a
//! closed loop of [`load::CLIENTS`] clients, and every metric is printed
//! by name and unit, ending with one JSON line. With `--trace 0` it
//! prints the end-to-end metrics of an untraced run, made of [`LEGS`]
//! legs in processes of their own, one after another; with `--trace 1`
//! it prints the per-layer ledger of one process (see `NOTES.md`).

pub mod ledger;
pub mod load;
pub mod workload;

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use strato_server::json::Json;
use workload::{Pool, Scale, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
    ("success_frac", "frac"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("http.read_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("json.parse_ns_per_byte", "ns/B"),
    ("decode.ms", "ms"),
    ("decode.ns_per_row", "ns/row"),
    ("spec.build_ms", "ms"),
    ("optimizer.ms", "ms"),
    ("optimizer.props_ms", "ms"),
    ("optimizer.enumerate_ms", "ms"),
    ("optimizer.physical_ms", "ms"),
    ("optimizer.plans", "count"),
    ("optimizer.us_per_plan", "us/plan"),
    ("exec.ms", "ms"),
    ("exec.op_ms", "ms"),
    ("exec.udf_calls", "count"),
    ("exec.interp_steps", "count"),
    ("exec.tasks", "count"),
    ("exec.records_shipped", "count"),
    ("exec.bytes_shipped", "B"),
    ("exec.preagg_ratio", "frac"),
    ("exec.spilled_bytes", "B"),
    ("exec.spill_runs", "count"),
    ("exec.peak_resident_bytes", "B"),
    ("exec.grant_wait_ms", "ms"),
    ("trace.task.self_ms", "ms"),
    ("trace.ship.ms", "ms"),
    ("trace.spill.ms", "ms"),
    ("trace.merge.ms", "ms"),
    ("trace.mem.ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("sort.ms", "ms"),
    ("encode.ms", "ms"),
    ("encode.bytes", "B"),
    ("admission.wait_ms", "ms"),
    ("admission.rejected", "count"),
    ("residual.ms", "ms"),
    ("replay.ms", "ms"),
    ("replay.unaccounted_frac", "frac"),
];

/// Processes the untraced run is split across, one after another. Each
/// boots its own server and measures its share of the run. A process's
/// peak memory depends on how many allocator arenas its threads happened
/// to fill, and lands on one of a few levels; `peak_rss_mb` is the mean
/// over these processes, which moves less than one peak or their median.
pub const LEGS: usize = 20;
/// Traced responses whose Chrome trace is folded into `trace.*`.
const TRACES_KEPT: usize = 16;
/// Untraced/traced round pairs of the traced run.
const ROUNDS: usize = 4;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which traffic mix to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// `false`: end-to-end run; `true`: per-layer ledger run.
    pub trace: bool,
    /// Input sizes (`--scale full|tiny`, default `full`).
    pub scale: Scale,
    /// Set (`--leg <i>`) in the processes an untraced run starts: run
    /// leg `i` only and print its [`Leg`] line.
    pub leg: Option<usize>,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`,
    /// plus the optional `--scale <full|tiny>` and `--leg <i>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        const FLAGS: [&str; 6] = ["workload", "seed", "seconds", "trace", "scale", "leg"];
        let mut given: HashMap<String, String> = HashMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| FLAGS.contains(n))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            given.insert(name.to_string(), value);
        }
        let get = |k: &str| given.get(k).ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("--{k} must be a whole number"))
        };
        let workload_name = get("workload")?;
        Ok(Args {
            workload: Workload::parse(workload_name)
                .ok_or_else(|| format!("unknown workload {workload_name:?}"))?,
            seed: num("seed")?,
            seconds: num("seconds")?.max(1),
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            scale: match given.get("scale") {
                None => Scale::FULL,
                Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?}"))?,
            },
            leg: given
                .contains_key("leg")
                .then(|| num("leg").map(|i| i as usize))
                .transpose()?,
        })
    }

    /// The arguments that make a process run leg `i` of this run.
    fn leg_args(&self, i: usize) -> Vec<String> {
        [
            ("workload", self.workload.name().to_string()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
            ("trace", "0".to_string()),
            ("scale", self.scale.name.to_string()),
            ("leg", i.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [format!("--{k}"), v])
        .collect()
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Queries sent (served and replayed).
    pub attempted: usize,
    /// Queries that failed or answered wrongly.
    pub failed: usize,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every query answered correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", finite(*v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Runs one workload as `args` say. An untraced run starts [`LEGS`]
/// processes of `exe` (this benchmark's binary), one at a time, and
/// waits for each.
pub fn run(args: &Args, exe: &Path) -> Result<Outcome, String> {
    let pool = Pool::generate(args.workload, args.seed, args.scale)?;
    let mut notes = vec![format!(
        "workload={} seed={} bodies={} body_bytes={} body_digest={:016x}",
        args.workload.name(),
        args.seed,
        pool.queries.len(),
        pool.body_bytes(),
        pool.digest()
    )];
    let run = Duration::from_secs(args.seconds);
    let (attempted, failed, values) = if args.trace {
        per_layer(&pool, run, &mut notes)?
    } else {
        drop(pool);
        end_to_end(args, exe, &mut notes)?
    };
    let spec: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = spec
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, v, unit)
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

type Measured = (usize, usize, HashMap<&'static str, f64>);

/// What one leg of the untraced run measured, in its own process.
#[derive(Debug, Clone, PartialEq)]
pub struct Leg {
    /// Queries of the boot and the warm-up.
    pub extra_attempted: usize,
    /// Boot and warm-up queries that failed or answered wrongly.
    pub extra_failed: usize,
    /// Queries of the measured loop.
    pub attempted: usize,
    /// Measured queries that failed or answered wrongly.
    pub failed: usize,
    /// Wall time of the measured loop, in seconds.
    pub elapsed_s: f64,
    /// Process CPU time over the measured loop, in seconds.
    pub cpu_s: f64,
    /// `VmHWM` of the leg's process at the end of its loop, in MiB.
    pub peak_rss_mb: f64,
    /// Time to bind and spawn the leg's server and answer its first
    /// query, in seconds.
    pub setup_s: f64,
    /// Latency of each correct measured response, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl Leg {
    /// The leg's line: one JSON object.
    pub fn json(&self) -> String {
        let latencies: Vec<String> = self
            .latencies_ms
            .iter()
            .map(|x| finite(*x).to_string())
            .collect();
        format!(
            "{{\"extra_attempted\":{},\"extra_failed\":{},\"attempted\":{},\"failed\":{},\
             \"elapsed_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\"setup_s\":{},\"latencies_ms\":[{}]}}",
            self.extra_attempted,
            self.extra_failed,
            self.attempted,
            self.failed,
            finite(self.elapsed_s),
            finite(self.cpu_s),
            finite(self.peak_rss_mb),
            finite(self.setup_s),
            latencies.join(",")
        )
    }

    /// Parses a line [`Leg::json`] wrote.
    pub fn parse(line: &str) -> Result<Leg, String> {
        let j = Json::parse(line).map_err(|e| format!("leg line: {e:?}"))?;
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("leg line: no {k}"))
        };
        let latencies_ms = j
            .get("latencies_ms")
            .and_then(Json::as_array)
            .ok_or("leg line: no latencies_ms")?
            .iter()
            .map(|x| x.as_f64().ok_or("leg line: a latency is not a number"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Leg {
            extra_attempted: num("extra_attempted")? as usize,
            extra_failed: num("extra_failed")? as usize,
            attempted: num("attempted")? as usize,
            failed: num("failed")? as usize,
            elapsed_s: num("elapsed_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            setup_s: num("setup_s")?,
            latencies_ms,
        })
    }
}

/// One leg of the untraced run, in this process: a boot, a warm-up, then
/// the measured closed loop for a [`LEGS`]th of the run.
pub fn leg(args: &Args) -> Result<Leg, String> {
    let pool = Pool::generate(args.workload, args.seed, args.scale)?;
    let qs = &pool.queries;
    let run = Duration::from_secs(args.seconds) / LEGS as u32;
    let (server, setup) = load::boot(&qs[args.leg.unwrap_or(0) % qs.len()])?;
    let warm = load::closed_loop(&server, qs, false, warmup(run), 0);

    let cpu0 = load::cpu_seconds()?;
    let m = load::closed_loop(&server, qs, false, run, 0);
    let cpu_s = load::cpu_seconds()? - cpu0;
    let peak_rss_mb = load::peak_rss_mb()?;
    server.shutdown();
    Ok(Leg {
        extra_attempted: 1 + warm.attempted,
        extra_failed: warm.failed,
        attempted: m.attempted,
        failed: m.failed,
        elapsed_s: m.elapsed.as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        setup_s: setup.as_secs_f64(),
        latencies_ms: m.latencies_ms,
    })
}

/// Starts leg `i` as a process of `exe`, waits for it and reads its line.
fn spawn_leg(exe: &Path, args: &Args, i: usize) -> Result<Leg, String> {
    let out = Command::new(exe)
        .args(args.leg_args(i))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("leg {i}: cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("leg {i} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("leg {i} printed nothing"))?;
    Leg::parse(line)
}

/// The untraced run: [`LEGS`] legs, one after another, each in its own
/// process. Latencies pool across legs; throughput and CPU per query are
/// totals over the legs' measured loops; `peak_rss_mb` is the mean of
/// the legs' peaks and `setup_s` the median of all their boots.
fn end_to_end(args: &Args, exe: &Path, notes: &mut Vec<String>) -> Result<Measured, String> {
    let legs = (0..LEGS)
        .map(|i| spawn_leg(exe, args, i))
        .collect::<Result<Vec<_>, _>>()?;
    let lat: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = legs.iter().map(|l| l.setup_s).collect();
    let peaks: Vec<f64> = legs.iter().map(|l| l.peak_rss_mb).collect();
    let sum = |f: fn(&Leg) -> f64| legs.iter().map(f).sum::<f64>();
    let attempted = sum(|l| l.attempted as f64);
    let done = lat.len();
    notes.push(format!(
        "latency_p50_ms over {done} samples, {} beyond p90; {LEGS} legs, one boot each; \
         peak RSS per leg {peaks:.1?} MiB",
        done - (done * 9).div_ceil(10),
    ));
    let values = HashMap::from([
        ("latency_p50_ms", quantile(&lat, 0.5)),
        ("latency_p90_ms", quantile(&lat, 0.9)),
        ("throughput_qps", done as f64 / sum(|l| l.elapsed_s)),
        (
            "cpu_ms_per_query",
            sum(|l| l.cpu_s) * 1e3 / done.max(1) as f64,
        ),
        ("peak_rss_mb", sum(|l| l.peak_rss_mb) / LEGS as f64),
        (
            "success_frac",
            (attempted - sum(|l| l.failed as f64)) / attempted.max(1.0),
        ),
        ("setup_s", quantile(&setups, 0.5)),
    ]);
    let total = |f: fn(&Leg) -> usize| legs.iter().map(f).sum::<usize>();
    Ok((
        total(|l| l.extra_attempted + l.attempted),
        total(|l| l.extra_failed + l.failed),
        values,
    ))
}

/// Warm-up before the measured loop: a tenth of the run, at most 2 s.
fn warmup(run: Duration) -> Duration {
    (run / 10).min(Duration::from_secs(2))
}

/// The traced run. In each of [`ROUNDS`] rounds: an untraced served loop
/// (residual, admission), a traced served loop (engine spans, tracing
/// overhead), each for 35% of the round, then the layer replay for the
/// rest. Alternating keeps slow drift of the machine out of the
/// comparisons between the three.
fn per_layer(pool: &Pool, run: Duration, notes: &mut Vec<String>) -> Result<Measured, String> {
    let qs = &pool.queries;
    let (server, _) = load::boot(&qs[0])?;
    let warm = load::closed_loop(&server, qs, false, warmup(run), 0);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("replay bind: {e}"))?;
    let round = run / ROUNDS as u32;
    let (mut served, mut traced) = (load::Served::default(), load::Served::default());
    let mut replays = Vec::new();
    let replay = |done: usize| ledger::replay(&listener, &qs[done % qs.len()]);
    for _ in 0..ROUNDS {
        served.merge(load::closed_loop(&server, qs, false, round * 7 / 20, 0));
        let keep = TRACES_KEPT.saturating_sub(traced.kept.len());
        traced.merge(load::closed_loop(&server, qs, true, round * 7 / 20, keep));
        let deadline = Instant::now() + round * 3 / 10;
        while replays.is_empty() || Instant::now() < deadline {
            replays.push(replay(replays.len())?);
        }
    }
    // Every pooled body is replayed at least once.
    while replays.len() < qs.len() {
        replays.push(replay(replays.len())?);
    }
    let scrape = load::scrape(&server)?;
    server.shutdown();

    let mut v: HashMap<&'static str, f64> = HashMap::new();
    let prom = |name: &str| {
        load::prom_value(&scrape, name).ok_or_else(|| format!("/metrics has no {name}"))
    };
    v.insert(
        "admission.wait_ms",
        prom("strato_admission_wait_seconds_sum")? * 1e3
            / prom("strato_admission_wait_seconds_count")?.max(1.0),
    );
    v.insert("admission.rejected", prom("strato_queries_rejected_total")?);

    let splits = traced
        .kept
        .iter()
        .map(|r| ledger::trace_split(r))
        .collect::<Result<Vec<_>, _>>()?;
    let split_median = |f: fn(&ledger::TraceSplit) -> f64| {
        quantile(&splits.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    v.insert("trace.task.self_ms", split_median(|s| s.task_self));
    v.insert("trace.ship.ms", split_median(|s| s.ship));
    v.insert("trace.spill.ms", split_median(|s| s.spill));
    v.insert("trace.merge.ms", split_median(|s| s.merge));
    v.insert("trace.mem.ms", split_median(|s| s.mem));
    let served_p50 = quantile(&served.latencies_ms, 0.5);
    v.insert(
        "trace.overhead_frac",
        quantile(&traced.latencies_ms, 0.5) / served_p50 - 1.0,
    );

    let wrong = replays.iter().filter(|r| !r.correct).count();
    let keys: Vec<&'static str> = replays[0].values.keys().copied().collect();
    for k in keys {
        let xs: Vec<f64> = replays.iter().map(|r| r.values[k]).collect();
        v.insert(k, quantile(&xs, 0.5));
    }
    v.insert("residual.ms", served_p50 - v["replay.ms"]);
    let range = |k: &str| {
        let xs = replays.iter().map(|r| r.values[k]);
        (
            xs.clone().fold(f64::INFINITY, f64::min),
            xs.fold(0.0, f64::max),
        )
    };
    notes.push(format!(
        "served p50 {served_p50:.3} ms over {} samples; traced p50 over {}; {} replays \
         (plans {:?}, spill runs {:?} min..max); {} traces folded",
        served.latencies_ms.len(),
        traced.latencies_ms.len(),
        replays.len(),
        range("optimizer.plans"),
        range("exec.spill_runs"),
        splits.len()
    ));
    Ok((
        1 + warm.attempted + served.attempted + traced.attempted + replays.len(),
        warm.failed + served.failed + traced.failed + wrong,
        v,
    ))
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks; NaN for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn args_reject_unknown_and_malformed() {
        let p = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = p("--workload join --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.scale.name, a.leg),
            (Workload::Join, 3, 5, true, "full", None)
        );
        let b = p("--workload plan --seed 4 --seconds 6 --trace 0 --scale tiny --leg 2").unwrap();
        assert_eq!((b.scale.name, b.leg), ("tiny", Some(2)));
        let again = Args::parse(b.leg_args(3)).unwrap();
        assert_eq!(
            (
                again.workload,
                again.seed,
                again.seconds,
                again.trace,
                again.scale.name,
                again.leg
            ),
            (Workload::Plan, 4, 6, false, "tiny", Some(3))
        );
        assert!(p("--workload join --seed 3 --seconds 5 --trace 1 --scale huge").is_err());
        assert!(p("--workload join --seed 3 --seconds 5 --trace 1 --leg x").is_err());
        assert!(p("--workload nope --seed 3 --seconds 5 --trace 1").is_err());
        assert!(p("--workload join --seed 3 --seconds 5 --trace 2").is_err());
        assert!(p("--workload join --seed 3 --seconds 5").is_err());
        assert!(p("--workload join --seed x --seconds 5 --trace 0").is_err());
        assert!(p("--bogus 1").is_err());
    }

    #[test]
    fn leg_lines_round_trip() {
        let leg = Leg {
            extra_attempted: 9,
            extra_failed: 1,
            attempted: 40,
            failed: 0,
            elapsed_s: 6.000_512,
            cpu_s: 5.25,
            peak_rss_mb: 19.335_937_5,
            setup_s: 0.131_2,
            latencies_ms: vec![131.5, 0.25, 1e-3],
        };
        assert_eq!(Leg::parse(&leg.json()).unwrap(), leg);
        assert!(Leg::parse("{}").is_err());
    }
}
