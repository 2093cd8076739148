//! Counters, percentiles and the metric sets of both kinds of run.

use std::collections::BTreeMap;
use std::time::Duration;

use mdv_system::NetStats;

use crate::trace::Span;
use crate::workload::OpKind;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Work counters of the whole deployment at one instant. They depend only
/// on the operations executed, so equal seeds give equal counters.
#[derive(Clone)]
pub struct Counters {
    /// Filter counters summed over MDPs, in `trace::stats_array` order.
    pub filter: [u64; 8],
    pub net: NetStats,
    /// Bytes appended to the WAL files of every durable store.
    pub wal_bytes: u64,
    /// Commit groups made durable.
    pub commits: u64,
    /// Checkpoints taken (snapshot epochs advanced).
    pub checkpoints: u64,
}

const FILTER_NAMES: [&str; 8] = [
    "documents_registered",
    "atoms",
    "trigger_matches",
    "trigger_evals",
    "join_evals",
    "probe_cache_hits",
    "probes",
    "iterations",
];

impl Counters {
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = FILTER_NAMES
            .iter()
            .zip(self.filter)
            .map(|(n, v)| format!("filter.{n}={v}"))
            .collect();
        parts.push(format!("system.msgs={}", self.net.messages));
        parts.push(format!("system.bytes={}", self.net.bytes));
        parts.push(format!("relstore.wal_bytes={}", self.wal_bytes));
        parts.push(format!("relstore.commits={}", self.commits));
        parts.push(format!("relstore.checkpoints={}", self.checkpoints));
        parts.join(" ")
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    samples: &BTreeMap<OpKind, Vec<f64>>,
    ops: usize,
    elapsed: Duration,
    setup_s: &[f64],
) -> Vec<Metric> {
    let of = |k| samples.get(&k).map_or(&[][..], Vec::as_slice);
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("ops_per_s", "1/s", ops as f64 / elapsed.as_secs_f64()),
        metric(
            "publish_mean_ms",
            "ms",
            mean(of(OpKind::Register).iter().copied()),
        ),
        metric(
            "update_mean_ms",
            "ms",
            mean(of(OpKind::Update).iter().copied()),
        ),
    ]
}

/// Prints every operation's latency distribution, each tail only where at
/// least ten samples lie beyond it, with the sample count beside it.
pub fn print_latencies(
    samples: &BTreeMap<OpKind, Vec<f64>>,
    ops: usize,
    elapsed: Duration,
    setup_s: &[f64],
) {
    println!(
        "setup_s: {} s (median of {setup_s:?})",
        percentile(setup_s, 0.5)
    );
    println!(
        "ops_per_s: {} 1/s ({ops} ops in {:.3} s, closed loop, 1 client)",
        ops as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64()
    );
    for (kind, xs) in samples {
        let name = match kind {
            OpKind::Register => "publish",
            other => other.name(),
        };
        let n = xs.len();
        let mut line = format!(
            "{name}: n={n} mean={} ms p50={} ms",
            mean(xs.iter().copied()),
            percentile(xs, 0.5)
        );
        for (q, label) in [(0.95, "p95"), (0.99, "p99")] {
            if (n as f64 * (1.0 - q)).round() >= 10.0 {
                line += &format!(" {label}={} ms", percentile(xs, q));
            } else {
                line += &format!(" {label}=n/a (fewer than 10 samples beyond)");
            }
        }
        println!("{line}");
    }
}

/// VmHWM of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Inputs of the per-layer metrics of a traced run.
pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    pub ops: usize,
    pub elapsed: Duration,
    pub start: &'a Counters,
    pub end: &'a Counters,
    pub user_xml_bytes: u64,
    pub delivered: u64,
    pub checkpoint_ms: f64,
    pub lmr_cached: u64,
    pub buffered: u64,
    pub gc_reclaimed: u64,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let ops = x.ops.max(1) as f64;
    let d = |i: usize| x.end.filter[i] - x.start.filter[i];
    let (trigger, joins, hits, probes) = (d(3), d(4), d(5), d(6));
    let wal_bytes = x.end.wal_bytes - x.start.wal_bytes;
    let net = |f: fn(&NetStats) -> u64| (f(&x.end.net) - f(&x.start.net)) as f64;

    // per-operation sums of span durations, by span name
    let mut per_op: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    let mut roots: BTreeMap<usize, (&str, f64)> = BTreeMap::new();
    let mut children: BTreeMap<usize, f64> = BTreeMap::new();
    for s in x.spans {
        *per_op.entry((s.name.as_str(), s.op)).or_default() += s.ms();
        match s.parent {
            None if s.name.starts_with("op.") => {
                roots.insert(s.op, (s.name.as_str(), s.ms()));
            }
            Some(_) => *children.entry(s.op).or_default() += s.ms(),
            None => {}
        }
    }
    let span_mean = |name: &str| {
        mean(
            per_op
                .iter()
                .filter(|((n, _), _)| *n == name)
                .map(|(_, ms)| *ms),
        )
    };
    fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
        spans.iter().filter(move |s| s.name == name)
    }
    let spans_of = |name: &'static str| named(x.spans, name);
    let root_p50 = |kind: OpKind| {
        let name = format!("op.{}", kind.name());
        let xs: Vec<f64> = roots
            .values()
            .filter(|(n, _)| *n == name)
            .map(|(_, ms)| *ms)
            .collect();
        percentile(&xs, 0.5)
    };
    let root_total: f64 = roots.values().map(|(_, ms)| ms).sum();
    let self_ms = mean(
        roots
            .iter()
            .map(|(op, (_, ms))| ms - children.get(op).copied().unwrap_or(0.0)),
    );
    let gc_calls = spans_of("lmr.gc").count() as u64;

    let mut m = vec![
        metric(
            "filter.trigger_evals_per_op",
            "count/op",
            trigger as f64 / ops,
        ),
        metric("filter.join_evals_per_op", "count/op", joins as f64 / ops),
        metric("filter.probes_per_op", "count/op", probes as f64 / ops),
        metric(
            "filter.probe_cache_hit_ratio",
            "ratio",
            ratio(hits, hits + probes),
        ),
        metric("filter.atoms_per_op", "count/op", d(1) as f64 / ops),
        metric("filter.iterations_per_op", "count/op", d(7) as f64 / ops),
        // no evaluations at all wastes nothing
        metric(
            "filter.useful_ratio",
            "ratio",
            if trigger + joins == 0 {
                1.0
            } else {
                ratio(x.delivered, trigger + joins)
            },
        ),
    ];
    for kind in [
        OpKind::Register,
        OpKind::Update,
        OpKind::Delete,
        OpKind::Subscribe,
    ] {
        let name = format!("filter.{}", kind.name());
        m.push(metric(format!("{name}_ms"), "ms", span_mean(&name)));
    }
    m.push(metric(
        "rulelang.parse_us",
        "us",
        mean(spans_of("rulelang.parse").map(|s| s.ms() * 1e3)),
    ));
    m.extend([
        metric("relstore.wal_bytes_per_op", "B/op", wal_bytes as f64 / ops),
        metric(
            "relstore.commits_per_op",
            "count/op",
            (x.end.commits - x.start.commits) as f64 / ops,
        ),
        metric(
            "relstore.checkpoints",
            "count",
            (x.end.checkpoints - x.start.checkpoints) as f64,
        ),
        metric("relstore.checkpoint_ms", "ms", x.checkpoint_ms),
        metric(
            "relstore.write_amp",
            "B/B",
            ratio(wal_bytes, x.user_xml_bytes),
        ),
        metric(
            "rdf.write_us",
            "us",
            mean(spans_of("rdf.write").map(|s| s.ms() * 1e3)),
        ),
        metric(
            "rdf.parse_us",
            "us",
            mean(spans_of("rdf.parse").map(|s| s.ms() * 1e3)),
        ),
        metric(
            "rdf.xml_bytes_per_doc",
            "B",
            ratio(x.user_xml_bytes, spans_of("rdf.write").count() as u64),
        ),
        metric("system.msgs_per_op", "count/op", net(|n| n.messages) / ops),
        metric("system.bytes_per_op", "B/op", net(|n| n.bytes) / ops),
        metric(
            "system.backbone_msgs_per_op",
            "count/op",
            net(|n| n.backbone_messages) / ops,
        ),
        metric(
            "system.edge_msgs_per_op",
            "count/op",
            net(|n| n.edge_messages) / ops,
        ),
        metric(
            "system.placement_msgs_per_op",
            "count/op",
            net(|n| n.placement_messages) / ops,
        ),
        metric("system.retries", "count", net(|n| n.retries)),
        metric(
            "system.logical_ms_per_op",
            "ms/op",
            net(|n| n.clock_ms) / ops,
        ),
        metric("system.self_ms", "ms", self_ms),
        metric("lmr.cached_resources", "count", x.lmr_cached as f64),
        metric("lmr.gc_ms", "ms", span_mean("lmr.gc")),
        metric(
            "lmr.gc_reclaimed_per_call",
            "count",
            ratio(x.gc_reclaimed, gc_calls),
        ),
        metric("lmr.buffered_publications", "count", x.buffered as f64),
        metric("lmr.query_ms", "ms", span_mean("lmr.query")),
    ]);
    for kind in OpKind::ALL {
        m.push(metric(
            format!("op.{}_p50_ms", kind.name()),
            "ms",
            root_p50(kind),
        ));
    }
    // time the traced loop spent outside the measured calls, per unit of
    // call time
    let wall_ms = x.elapsed.as_secs_f64() * 1e3;
    m.push(metric(
        "trace.overhead_ratio",
        "ratio",
        if root_total > 0.0 {
            (wall_ms - root_total) / root_total
        } else {
            0.0
        },
    ));
    for metric in &m {
        println!("{}: {} {}", metric.name, metric.value, metric.unit);
    }
    m
}

/// The result line: the last line of standard output.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
