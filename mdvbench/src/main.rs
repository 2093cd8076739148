//! End-to-end MDV benchmark.
//!
//! ```text
//! cargo run --release --manifest-path mdvbench/Cargo.toml -- \
//!     --workload <publish_path_join|durable_churn|subscribe_churn> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! One client thread drives a closed loop against the public `MdvSystem`
//! API with the default filter configuration (one filter thread). Every
//! call returns at quiescence, so an operation's latency is the time until
//! every affected LMR cache has applied it. The human-readable report comes
//! first; the last line of standard output is one JSON object. With
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run (see `README.md`). The end-to-end
//! times are scaled to a reference host speed by a gauge read between
//! rounds of operations (see `hostspeed.rs`).

mod hostspeed;
mod memdisk;
mod oracle;
mod report;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mdv_rdf::{parse_document, write_document, RdfSchema};
use mdv_relstore::{Database, DurableEngine};
use mdv_rulelang::{normalize, parse_rule, split_or, typecheck};
use mdv_system::MdvSystem;
use mdv_workload::benchmark_schema;

use memdisk::MemDisk;
use report::Counters;
use trace::{deployment_stats, DocOp, Replay, Tracer};
use workload::{build, Backend, Kind, Model, Op, OpKind, Plan, Size, Sub, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::full();
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::full(),
                    "smoke" => Size::smoke(),
                    _ => return Err(bad("size")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mdvbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("mdvbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = if args.kind.durable() {
        run::<DurableEngine<MemDisk>>(&args)
    } else {
        run::<Database>(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mdvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations between two readings of the host-speed gauge.
const ROUND_OPS: usize = 100;

/// What the timed phase measured.
struct Phase {
    samples: BTreeMap<OpKind, Vec<f64>>,
    ops: usize,
    errors: usize,
    /// Wall time of the operations, without the gauge readings.
    elapsed: Duration,
    scaled: Scaled,
    start: Counters,
    window: Option<Counters>,
    end: Counters,
    gc_reclaimed: u64,
    trace: Option<Traced>,
}

struct Traced {
    tracer: Tracer,
    replay: Replay,
    replay_start: Vec<[u64; 8]>,
    deploy_start: Vec<[u64; 8]>,
    /// RDF/XML bytes of the documents the client registered or updated.
    xml_bytes: u64,
}

/// Runs one workload and returns the JSON result line.
fn run<S: Backend>(args: &Args) -> Result<String, String> {
    let schema = benchmark_schema();
    let mut wl = Workload::new(args.kind, args.size, args.seed);
    let (plan, mut model) = wl.plan();
    let repeats = if args.trace {
        1
    } else {
        args.size.setup_repeats
    };

    // set-up, repeated; the last deployment is the one measured. The
    // gauge is read every SETUP_LAP rules or documents.
    let mut setup_s = Vec::new();
    let mut setup_scaled = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        // the previous deployment is dropped before the next is built
        drop(kept.take());
        let mut clock = hostspeed::Clock::start();
        let built = build::<S>(&schema, &plan, &mut || {
            clock.lap();
        });
        kept = Some(built.map_err(|e| format!("set-up: {e}"))?);
        clock.lap();
        setup_s.push(clock.wall_s);
        setup_scaled.push(clock.scaled_s);
    }
    let (mut sys, ids) = kept.expect("at least one set-up");
    model.subs = plan
        .rules
        .iter()
        .zip(&ids)
        .map(|((lmr, text), &id)| Sub {
            lmr: lmr.clone(),
            id,
            text: text.clone(),
        })
        .collect();
    if args.kind.durable() {
        println!("storage medium: one in-memory disk per node (appends to a buffer, sync is free)");
    }

    let traced = if args.trace {
        let mut replay = Replay::new(&schema, &plan);
        replay
            .load(&sys, &plan, &ids)
            .map_err(|e| format!("replay set-up: {e}"))?;
        Some(replay)
    } else {
        None
    };

    let mut phase = timed_phase(args, &mut wl, &plan, &mut model, &mut sys, &schema, traced);

    // after the timed phase: forced checkpoint (traced durable runs), oracle
    let mut checkpoint_ms = 0.0;
    if let Some(t) = phase.trace.as_mut() {
        let start = Instant::now();
        let logged = S::checkpoint_all(&mut sys).map_err(|e| format!("checkpoint: {e}"))?;
        let end = Instant::now();
        if logged {
            checkpoint_ms = (end - start).as_secs_f64() * 1e3;
            t.tracer
                .record(phase.ops, None, "relstore.checkpoint", None, (start, end));
        }
    }
    let problems = oracle::check(&sys, &schema, &model);
    for p in problems.iter().take(20) {
        println!("oracle mismatch: {p}");
    }
    let mut correct = problems.is_empty() && phase.errors == 0;
    let failed = phase.errors + problems.len();
    println!(
        "oracle: {} LMR caches checked against {} live documents and {} rules: {}",
        sys.lmr_names().len(),
        model.docs.len(),
        model.subs.len(),
        if problems.is_empty() {
            "consistent".to_owned()
        } else {
            format!("{} mismatches", problems.len())
        }
    );
    println!(
        "failed_ops_ratio: {} ({failed} of {})",
        failed as f64 / phase.ops.max(1) as f64,
        phase.ops
    );
    if let Some(w) = &phase.window {
        println!(
            "counters after the first {} ops: {}",
            args.size.counter_window,
            w.render()
        );
    }

    let metrics = match phase.trace.take() {
        None => {
            println!("peak_rss_mb: {} MB", report::peak_rss_mb());
            println!("as measured:");
            report::print_latencies(&phase.samples, phase.ops, phase.elapsed, &setup_s);
            let readings = &phase.scaled.clock.readings;
            println!(
                "host-speed gauge: {} readings, median {:.1} us, min {:.1} us, max {:.1} us; reference {:.1} us",
                readings.len(),
                report::median(readings) * 1e6,
                readings.iter().copied().fold(f64::INFINITY, f64::min) * 1e6,
                readings.iter().copied().fold(0.0, f64::max) * 1e6,
                hostspeed::REFERENCE_S * 1e6
            );
            let scaled_elapsed = Duration::from_secs_f64(phase.scaled.clock.scaled_s);
            println!("scaled to the reference host speed (the result below):");
            report::print_latencies(
                &phase.scaled.samples,
                phase.ops,
                scaled_elapsed,
                &setup_scaled,
            );
            report::end_to_end(
                &phase.scaled.samples,
                phase.ops,
                scaled_elapsed,
                &setup_scaled,
            )
        }
        Some(t) => {
            let deploy_end = deployment_stats(&sys);
            let replay_end = t.replay.stats();
            let mut faithful = true;
            for (i, m) in sys.mdp_names().iter().enumerate() {
                let deployed: Vec<u64> = (0..8)
                    .map(|j| deploy_end[i][j] - t.deploy_start[i][j])
                    .collect();
                let replayed: Vec<u64> = (0..8)
                    .map(|j| replay_end[i][j] - t.replay_start[i][j])
                    .collect();
                if deployed != replayed {
                    faithful = false;
                    println!("replay fidelity: {m} deployment {deployed:?} != replay {replayed:?}");
                }
            }
            println!(
                "replay fidelity: {}",
                if faithful {
                    "filter counters equal on every MDP"
                } else {
                    "FAILED"
                }
            );
            correct &= faithful;
            let path = args.out.join(format!(
                "trace-{}-seed{}.jsonl",
                args.kind.name(),
                args.seed
            ));
            t.tracer
                .write(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "spans: {} written to {}",
                t.tracer.spans.len(),
                path.display()
            );
            let lmr_cached: u64 = sys
                .lmr_names()
                .iter()
                .map(|l| sys.lmr(l).expect("named LMR").cached_uris().len() as u64)
                .sum();
            let buffered: u64 = sys
                .lmr_names()
                .iter()
                .map(|l| sys.lmr(l).expect("named LMR").buffered_publications() as u64)
                .sum();
            report::per_layer(&report::LayerInputs {
                spans: &t.tracer.spans,
                ops: phase.ops,
                elapsed: phase.elapsed,
                start: &phase.start,
                end: &phase.end,
                user_xml_bytes: t.xml_bytes,
                delivered: t.replay.delivered,
                checkpoint_ms,
                lmr_cached,
                buffered,
                gc_reclaimed: phase.gc_reclaimed,
            })
        }
    };
    Ok(report::json_line(correct, phase.ops, failed, &metrics))
}

fn counters<S: Backend>(sys: &MdvSystem<S>) -> Counters {
    let mut filter = [0u64; 8];
    for s in deployment_stats(sys) {
        for (f, v) in filter.iter_mut().zip(s) {
            *f += v;
        }
    }
    let mut stores: Vec<&S> = Vec::new();
    for m in sys.mdp_names() {
        stores.extend(sys.mdp(m).expect("named MDP").engine().shard_storages());
    }
    for l in sys.lmr_names() {
        stores.push(sys.lmr(l).expect("named LMR").storage());
    }
    let (mut checkpoints, mut wal_bytes, mut commits) = (0, 0, 0);
    for store in stores {
        let (epoch, bytes, c) = S::wal_counters(store);
        checkpoints += epoch;
        wal_bytes += bytes;
        commits += c;
    }
    Counters {
        filter,
        net: sys.network_stats(),
        wal_bytes,
        commits,
        checkpoints,
    }
}

/// Has the run collected enough samples for every reported percentile?
fn enough(samples: &BTreeMap<OpKind, Vec<f64>>, ops: usize, size: &Size) -> bool {
    let n = |k| samples.get(&k).map_or(0, Vec::len);
    ops >= size.counter_window
        && n(OpKind::Register) >= size.min_registers
        && n(OpKind::Update) >= size.min_updates
}

/// Latencies and wall time scaled, round by round, to the reference host
/// speed.
struct Scaled {
    samples: BTreeMap<OpKind, Vec<f64>>,
    /// One lap per round.
    clock: hostspeed::Clock,
}

impl Scaled {
    /// Ends a round that held the latencies `round`.
    fn close_round(&mut self, round: &mut Vec<(OpKind, f64)>) {
        let f = self.clock.lap();
        for (kind, ms) in round.drain(..) {
            self.samples.entry(kind).or_default().push(ms * f);
        }
    }
}

fn timed_phase<S: Backend>(
    args: &Args,
    wl: &mut Workload,
    plan: &Plan,
    model: &mut Model,
    sys: &mut MdvSystem<S>,
    schema: &RdfSchema,
    replay: Option<Replay>,
) -> Phase {
    let start_counters = counters(sys);
    let origin = Instant::now();
    let mut trace = replay.map(|replay| Traced {
        tracer: Tracer::new(origin),
        replay_start: replay.stats(),
        deploy_start: deployment_stats(sys),
        replay,
        xml_bytes: 0,
    });
    let deadline = Duration::from_secs_f64(args.seconds);
    // the run may outlast --seconds only to collect its minimum samples
    let cap = deadline * 2 + Duration::from_secs(10);
    let mut samples: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    let (mut ops, mut errors, mut gc_reclaimed) = (0, 0, 0);
    let mut window = None;
    let mut round = Vec::new();
    let mut scaled = Scaled {
        samples: BTreeMap::new(),
        clock: hostspeed::Clock::start(),
    };
    loop {
        let elapsed = origin.elapsed();
        if elapsed >= cap || (elapsed >= deadline && enough(&samples, ops, &args.size)) {
            break;
        }
        let op = wl.next_op(model, plan);
        let kind = op.kind();
        let mut gc = None;
        let t0 = Instant::now();
        let result = match &op {
            Op::Register { entry, doc } => sys.register_document(entry, doc).map(|_| None),
            Op::Update { entry, doc } => sys.update_document(entry, doc).map(|_| None),
            Op::Delete { entry, uri } => sys.delete_document(entry, uri).map(|_| None),
            Op::Query { lmr, text } => sys.query(lmr, text).map(|r| {
                std::hint::black_box(r.len());
                None
            }),
            Op::Subscribe { lmr, text } => sys.subscribe(lmr, text).map(Some),
            Op::Unsubscribe { slot } => {
                let sub = &model.subs[*slot];
                sys.unsubscribe(&sub.lmr, sub.id).and_then(|_| {
                    let g0 = Instant::now();
                    let n = sys.collect_garbage_at(&sub.lmr)?;
                    gc = Some((g0, Instant::now(), n));
                    Ok(None)
                })
            }
        };
        let t1 = Instant::now();
        match result {
            Ok(subscribed) => {
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                samples.entry(kind).or_default().push(ms);
                round.push((kind, ms));
                if let Some((_, _, n)) = gc {
                    gc_reclaimed += n as u64;
                }
                if let Some(t) = trace.as_mut() {
                    if let Err(e) =
                        replay_op(t, sys, schema, model, &op, subscribed, ops, (t0, t1), gc)
                    {
                        errors += 1;
                        eprintln!("op {ops} ({}) replay failed: {e}", kind.name());
                    }
                }
                model.apply(&op, subscribed);
            }
            Err(e) => {
                errors += 1;
                eprintln!("op {ops} ({}) failed: {e}", kind.name());
            }
        }
        ops += 1;
        if ops % ROUND_OPS == 0 {
            scaled.close_round(&mut round);
        }
        if ops == args.size.counter_window {
            window = Some(counters(sys));
        }
    }
    if ops % ROUND_OPS != 0 {
        scaled.close_round(&mut round);
    }
    let end = counters(sys);
    Phase {
        samples,
        ops,
        errors,
        elapsed: Duration::from_secs_f64(scaled.clock.wall_s),
        scaled,
        start: start_counters,
        window,
        end,
        gc_reclaimed,
        trace,
    }
}

/// Records the root span of one operation and replays its inputs through
/// the layers below it as child spans.
#[allow(clippy::too_many_arguments)]
fn replay_op<S: Backend>(
    t: &mut Traced,
    sys: &MdvSystem<S>,
    schema: &RdfSchema,
    model: &Model,
    op: &Op,
    subscribed: Option<u64>,
    index: usize,
    call: (Instant, Instant),
    gc: Option<(Instant, Instant, usize)>,
) -> Result<(), String> {
    let root = t
        .tracer
        .record(index, None, format!("op.{}", op.kind().name()), None, call);
    let filter_name = format!("filter.{}", op.kind().name());
    let timed = match op {
        Op::Register { doc, .. } | Op::Update { doc, .. } => {
            let xml = t
                .tracer
                .child(index, root, "rdf.write", || write_document(doc));
            t.xml_bytes += xml.len() as u64;
            t.tracer
                .child(index, root, "rdf.parse", || parse_document(doc.uri(), &xml))
                .map_err(|e| e.to_string())?;
            let owners = t.replay.owners(sys, doc.uri());
            let doc_op = if matches!(op, Op::Register { .. }) {
                DocOp::Register(doc)
            } else {
                DocOp::Update(doc)
            };
            t.replay.apply_doc(&owners, doc_op)
        }
        Op::Delete { uri, .. } => {
            let owners = t.replay.owners(sys, uri);
            t.replay.apply_doc(&owners, DocOp::Delete(uri))
        }
        Op::Query { lmr, text } => {
            front_end(t, schema, index, root, text)?;
            let lmr = sys.lmr(lmr).map_err(|e| e.to_string())?;
            t.tracer
                .child(index, root, "lmr.query", || lmr.query(text))
                .map_err(|e| e.to_string())?;
            Ok(Vec::new())
        }
        Op::Subscribe { lmr, text } => {
            front_end(t, schema, index, root, text)?;
            let id = subscribed.ok_or("subscribe returned no id")?;
            t.replay.subscribe(lmr, id, text)
        }
        Op::Unsubscribe { slot } => {
            let sub = &model.subs[*slot];
            if let Some((g0, g1, _)) = gc {
                t.tracer.record(index, Some(root), "lmr.gc", None, (g0, g1));
            }
            t.replay.unsubscribe(&sub.lmr, sub.id)
        }
    }
    .map_err(|e| e.to_string())?;
    for (mdp, start, end) in timed {
        t.tracer.record(
            index,
            Some(root),
            filter_name.clone(),
            Some(mdp),
            (start, end),
        );
    }
    Ok(())
}

/// The rule-language front end every rule and query passes: parse, split
/// at `or`, normalize, typecheck.
fn front_end(
    t: &mut Traced,
    schema: &RdfSchema,
    index: usize,
    root: usize,
    text: &str,
) -> Result<(), String> {
    t.tracer.child(index, root, "rulelang.parse", || {
        let rule = parse_rule(text).map_err(|e| e.to_string())?;
        for conj in split_or(&rule) {
            match normalize(&conj, schema) {
                Ok(n) => typecheck(&n, schema).map_err(|e| e.to_string())?,
                Err(mdv_rulelang::Error::Unsatisfiable) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    })
}
