//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! cargo run -p mdv-bench --bin figures --release -- all
//! cargo run -p mdv-bench --bin figures --release -- fig12 --full
//! cargo run -p mdv-bench --bin figures --release -- fig12 --threads 4
//! cargo run -p mdv-bench --bin figures --release -- thread-scaling --full
//! ```
//!
//! Subcommands: `fig11` `fig12` `fig13` `fig14` `fig15`
//! `ablation-naive` `ablation-groups` `ablation-updates` `thread-scaling`
//! `shard-scaling` `matching-scaling` `wal-overhead` `recovery-torture`
//! `backbone-repair` `backbone-consensus` `placement-scaling` `all`.
//! `--full` runs the paper-sized rule bases (up to 100,000 rules); the
//! default sizes finish in a few minutes on a laptop. `--threads N` runs
//! the figure sweeps with the parallel filter on N pool workers
//! (publications are byte-identical for any N; only wall-clock changes).
//! `--backend durable` runs the figure sweeps through the WAL+snapshot
//! storage engine instead of the in-memory database (group commit and
//! fsync on the measured path; single-threaded, smaller rule bases).
//! `thread-scaling` sweeps N itself (1/2/4/8) on the Figure-12 PATH
//! workload and writes machine-readable results to
//! `BENCH_filter_scaling.json`; `shard-scaling` sweeps the filter shard
//! count (1/2/4/8, DESIGN.md §8) on the same workload and writes
//! `BENCH_shard_scaling.json`; `matching-scaling` compares scan and
//! inverted-index trigger matching on the full-text `contains` workload at
//! varying overlap ratios (DESIGN.md §10), asserts the two routes publish
//! byte-identically, and writes
//! `BENCH_matching_scaling.json`; `wal-overhead` compares the two backends on
//! the Figure-11/12 workloads and writes `BENCH_wal_overhead.json`;
//! `recovery-torture` drives the durable engine over a seeded
//! fault-injecting VFS (DESIGN.md §12) at increasing disk-fault
//! probabilities, crashes it under rotating crash modes, and writes
//! `BENCH_recovery.json` — crash-recovery latency plus snapshot fall-back
//! and corruption-refusal rates, gated on zero committed-write loss;
//! `backbone-repair` drives a 3-MDP backbone through a fail/heal cycle at
//! increasing loss rates and writes `BENCH_backbone_repair.json` (logical
//! time, not wall-clock); `backbone-consensus` runs the same 3-MDP
//! deployment under LWW gossip and under Raft (DESIGN.md §9) and contrasts
//! write latency, fail/heal reconvergence, and partition behaviour in
//! `BENCH_backbone_consensus.json`; `placement-scaling` sweeps MDP count ×
//! replication factor on the partitioned backbone (DESIGN.md §11), gates
//! the `R = all` cell byte-identical against legacy full replication, and
//! writes `BENCH_placement_scaling.json`. The `--threads`/`--backend`
//! flags do not apply to those simulated-backbone subcommands.

use std::env;
use std::io::Write;
use std::path::PathBuf;

use mdv_bench::{
    ablation_groups, ablation_naive, ablation_updates, render_csv, sweep_durable,
    sweep_fractions_threaded, sweep_threaded, wal_overhead_point, Measurement, BATCH_SIZES,
    BATCH_SIZES_QUICK,
};
use mdv_testkit::bench::{json_line, measure, BenchOptions};
use mdv_workload::RuleType;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Mem,
    Durable,
}

struct Config {
    full: bool,
    min_elapsed_ms: f64,
    threads: usize,
    backend: Backend,
}

impl Config {
    fn batches(&self) -> &'static [u64] {
        if self.full {
            &BATCH_SIZES
        } else {
            &BATCH_SIZES_QUICK
        }
    }

    /// One sweep, on whichever backend was selected. The durable path
    /// rebuilds its engine per repetition (no cheap clone of a WAL), so it
    /// runs single-threaded and ignores `--threads`.
    fn sweep(&self, rule_type: RuleType, rule_count: u64, fraction: f64) -> Vec<Measurement> {
        match self.backend {
            Backend::Mem => sweep_threaded(
                rule_type,
                rule_count,
                fraction,
                self.batches(),
                self.min_elapsed_ms,
                self.threads,
            ),
            Backend::Durable => {
                let scratch = wal_scratch_dir();
                let rows = sweep_durable(
                    rule_type,
                    rule_count,
                    fraction,
                    self.batches(),
                    self.min_elapsed_ms,
                    &scratch,
                );
                let _ = std::fs::remove_dir_all(&scratch);
                rows
            }
        }
    }

    /// Durable sweeps rebuild a full rule base per repetition; scale the
    /// rule counts down so the smoke stays minutes, not hours.
    fn scale(&self, rule_counts: &[u64]) -> Vec<u64> {
        match self.backend {
            Backend::Mem => rule_counts.to_vec(),
            Backend::Durable => rule_counts.iter().map(|&rc| (rc / 10).max(100)).collect(),
        }
    }
}

fn wal_scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("mdv-figures-wal-{}", std::process::id()))
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut threads = 1usize;
    let mut backend = Backend::Mem;
    let mut commands: Vec<&str> = Vec::new();
    let mut iter = args.iter().map(String::as_str);
    while let Some(arg) = iter.next() {
        match arg {
            "--full" => {}
            "--threads" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--threads needs a value");
                    std::process::exit(2);
                });
                threads = value.parse().unwrap_or_else(|_| {
                    eprintln!("--threads must be an integer, got '{value}'");
                    std::process::exit(2);
                });
                threads = threads.max(1);
            }
            "--backend" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--backend needs a value (mem|durable)");
                    std::process::exit(2);
                });
                backend = match value {
                    "mem" => Backend::Mem,
                    "durable" => Backend::Durable,
                    other => {
                        eprintln!("--backend must be 'mem' or 'durable', got '{other}'");
                        std::process::exit(2);
                    }
                };
            }
            other => commands.push(other),
        }
    }
    let command = commands.first().copied().unwrap_or("all");
    let config = Config {
        full,
        min_elapsed_ms: if full { 200.0 } else { 50.0 },
        threads,
        backend,
    };

    match command {
        "fig11" => fig11(&config),
        "fig12" => fig12(&config),
        "fig13" => fig13(&config),
        "fig14" => fig14(&config),
        "fig15" => fig15(&config),
        "ablation-naive" => run_ablation_naive(&config),
        "ablation-groups" => run_ablation_groups(&config),
        "ablation-updates" => run_ablation_updates(&config),
        "thread-scaling" => run_thread_scaling(&config),
        "shard-scaling" => run_shard_scaling(&config),
        "matching-scaling" => run_matching_scaling(&config),
        "wal-overhead" => run_wal_overhead(&config),
        "recovery-torture" => run_recovery_torture(&config),
        "backbone-repair" => run_backbone_repair(&config),
        "backbone-consensus" => run_backbone_consensus(&config),
        "placement-scaling" => run_placement_scaling(&config),
        "all" => {
            fig11(&config);
            fig12(&config);
            fig13(&config);
            fig14(&config);
            fig15(&config);
            run_ablation_naive(&config);
            run_ablation_groups(&config);
            run_ablation_updates(&config);
            run_thread_scaling(&config);
            run_shard_scaling(&config);
            run_matching_scaling(&config);
            run_wal_overhead(&config);
            run_recovery_torture(&config);
            run_backbone_repair(&config);
            run_backbone_consensus(&config);
            run_placement_scaling(&config);
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!(
                "usage: figures [fig11|fig12|fig13|fig14|fig15|ablation-naive|\
                 ablation-groups|ablation-updates|thread-scaling|shard-scaling|\
                 matching-scaling|wal-overhead|recovery-torture|backbone-repair|\
                 backbone-consensus|placement-scaling|all] [--full] [--threads N] \
                 [--backend mem|durable]"
            );
            std::process::exit(2);
        }
    }
}

fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    println!("{detail}");
}

fn print_rows(rows: &[Measurement]) {
    print!("{}", render_csv(rows));
}

/// Figure 11: OID rules — average registration cost vs batch size; the
/// curves for different rule-base sizes coincide (string-equality rules are
/// probed through a full-key hash index).
fn fig11(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    banner(
        "Figure 11: OID rules",
        "expected shape: cost falls with batch size then flattens; curves for \
         all rule-base sizes nearly identical",
    );
    let mut rows = Vec::new();
    for rc in config.scale(rule_counts) {
        rows.extend(config.sweep(RuleType::Oid, rc, 0.0));
    }
    print_rows(&rows);
}

/// Figure 12: PATH rules — cost depends on the rule-base size (partition
/// scans over the numeric-equality trigger table) and amortizes with batches.
fn fig12(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    banner(
        "Figure 12: PATH rules",
        "expected shape: cost falls with batch size then flattens; larger rule \
         bases are uniformly more expensive",
    );
    let mut rows = Vec::new();
    for rc in config.scale(rule_counts) {
        rows.extend(config.sweep(RuleType::Path, rc, 0.0));
    }
    print_rows(&rows);
}

/// Figure 13: COMP rules matching 10% of the rule base — small batches are
/// preferable; cost depends on the rule-base size.
fn fig13(config: &Config) {
    // the paper plots 1k and 10k rule bases for COMP; both fit the quick run
    let rule_counts: &[u64] = &[1_000, 10_000];
    banner(
        "Figure 13: COMP rules (10% of rule base)",
        "expected shape: per-document cost roughly flat-to-rising with batch \
         size; larger rule bases are more expensive",
    );
    let mut rows = Vec::new();
    for rc in config.scale(rule_counts) {
        rows.extend(config.sweep(RuleType::Comp, rc, 0.1));
    }
    print_rows(&rows);
}

/// Figure 14: JOIN rules — like PATH but with the full filter pipeline
/// (three triggers, an identity join, a reference join per rule).
fn fig14(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[1_000, 10_000]
    } else {
        &[1_000, 5_000]
    };
    banner(
        "Figure 14: JOIN rules",
        "expected shape: like PATH with higher absolute cost; rule-base size \
         dependence remains",
    );
    let mut rows = Vec::new();
    for rc in config.scale(rule_counts) {
        rows.extend(config.sweep(RuleType::Join, rc, 0.0));
    }
    print_rows(&rows);
}

/// Figure 15: 10,000 COMP rules — varying matched percentage for several
/// batch sizes.
fn fig15(config: &Config) {
    let rule_count = config.scale(&[if config.full { 10_000 } else { 2_000 }])[0];
    let fractions = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5];
    let batches: &[u64] = &[1, 10, 100, 1000];
    banner(
        "Figure 15: COMP rules, varying matched percentage",
        "expected shape: higher matched percentage costs more at every batch size",
    );
    let rows = match config.backend {
        Backend::Mem => sweep_fractions_threaded(
            rule_count,
            &fractions,
            batches,
            config.min_elapsed_ms,
            config.threads,
        ),
        Backend::Durable => {
            let scratch = wal_scratch_dir();
            let mut rows = Vec::new();
            for &f in &fractions {
                rows.extend(sweep_durable(
                    RuleType::Comp,
                    rule_count,
                    f,
                    batches,
                    config.min_elapsed_ms,
                    &scratch,
                ));
            }
            let _ = std::fs::remove_dir_all(&scratch);
            rows
        }
    };
    print_rows(&rows);
}

/// Ablation A: filter vs naive evaluate-every-rule baseline.
fn run_ablation_naive(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000]
    };
    banner(
        "Ablation A: filter vs naive baseline (PATH rules, batch 100)",
        "expected shape: naive cost grows linearly with the rule base; the \
         filter's trigger index keeps growth far below linear",
    );
    println!("rule_count,filter_ms_per_doc,naive_ms_per_doc,speedup");
    for (f, n) in ablation_naive(RuleType::Path, rule_counts, 100, config.min_elapsed_ms) {
        println!(
            "{},{:.5},{:.5},{:.1}x",
            f.rule_count,
            f.avg_ms_per_doc,
            n.avg_ms_per_doc,
            n.avg_ms_per_doc / f.avg_ms_per_doc
        );
    }
}

/// Ablation B: rule groups (shared probes) on vs off.
fn run_ablation_groups(config: &Config) {
    let rule_count = if config.full { 10_000 } else { 2_000 };
    banner(
        "Ablation B: rule groups on vs off (JOIN rules, batch 100)",
        "expected shape: identical matches; grouped evaluation is at most as \
         expensive (probe sharing)",
    );
    let (grouped, ungrouped) = ablation_groups(rule_count, 100, config.min_elapsed_ms);
    println!("variant,rule_count,ms_per_doc,matches");
    println!(
        "grouped,{},{:.5},{}",
        grouped.rule_count, grouped.avg_ms_per_doc, grouped.matches
    );
    println!(
        "ungrouped,{},{:.5},{}",
        ungrouped.rule_count, ungrouped.avg_ms_per_doc, ungrouped.matches
    );
}

/// Ablation C: the three-pass update protocol.
fn run_ablation_updates(config: &Config) {
    let rule_count = if config.full { 10_000 } else { 1_000 };
    let docs = if config.full { 500 } else { 200 };
    banner(
        "Ablation C: update/delete protocol (PATH rules)",
        "expected shape: updates cost a small multiple of registration (three \
         filter passes, §3.5); deletes similar",
    );
    let (register, update, delete) = ablation_updates(rule_count, docs);
    println!("operation,ms_per_doc");
    println!("register,{register:.5}");
    println!("update,{update:.5}");
    println!("delete,{delete:.5}");
    println!("update/register ratio: {:.2}", update / register);
}

/// Thread scaling: batch registration of the Figure-12 PATH workload on
/// 1/2/4/8 pool workers. Publications are asserted byte-identical across
/// thread counts before anything is timed; results go to stdout and, as
/// testkit bench-runner JSON lines, to `BENCH_filter_scaling.json`.
fn run_thread_scaling(config: &Config) {
    use mdv_bench::build_engine;
    use mdv_workload::{benchmark_documents, BenchParams};

    let (rule_counts, batch): (&[u64], u64) = if config.full {
        (&[10_000, 100_000], 1000)
    } else {
        (&[1_000, 10_000], 100)
    };
    let thread_counts = [1usize, 2, 4, 8];
    banner(
        "Thread scaling: PATH rules, parallel batch registration",
        "expected shape: total batch time falls with the worker count up to \
         the machine's core count, publications identical at every point",
    );
    // the default runner iteration count (10) is sized for micro-benches;
    // a 100k-rule batch registration runs for tens of seconds, so use a
    // smaller count unless MDV_BENCH_ITERS asks otherwise
    let opts = if std::env::var_os("MDV_BENCH_ITERS").is_some() {
        BenchOptions::from_env()
    } else {
        BenchOptions {
            warmup_iters: 1,
            iters: if config.full { 3 } else { 5 },
        }
    };

    let mut json_lines: Vec<String> = Vec::new();
    println!("rule_count,batch,threads,median_ms,ms_per_doc,speedup_vs_1thread");
    for &rc in rule_counts {
        let base = build_engine(RuleType::Path, rc);
        let params = BenchParams {
            rule_count: rc,
            comp_match_fraction: 0.1,
        };
        let docs = benchmark_documents(0..batch, &params);
        // determinism gate: every thread count must publish the same bytes
        let reference = {
            let mut engine = base.clone();
            engine.register_batch(&docs).expect("reference registers")
        };
        let group = format!("filter_scaling_path_{rc}rules_batch{batch}");
        let mut baseline_ns = 0u64;
        for &threads in &thread_counts {
            {
                let mut engine = base.clone();
                engine.set_threads(threads);
                let pubs = engine.register_batch(&docs).expect("scaling registers");
                assert_eq!(
                    pubs, reference,
                    "publications diverged at threads={threads} (rules={rc})"
                );
            }
            let stats = measure(
                opts,
                || {
                    let mut engine = base.clone();
                    engine.set_threads(threads);
                    engine
                },
                |mut engine| {
                    engine.register_batch(&docs).expect("scaling registers");
                },
            );
            if threads == 1 {
                baseline_ns = stats.median_ns;
            }
            println!(
                "{},{},{},{:.3},{:.5},{:.2}x",
                rc,
                batch,
                threads,
                stats.median_ns as f64 / 1e6,
                stats.median_ns as f64 / 1e6 / batch as f64,
                baseline_ns as f64 / stats.median_ns as f64
            );
            json_lines.push(json_line(&group, &format!("threads_{threads}"), &stats));
        }
    }

    let path = "BENCH_filter_scaling.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write scaling results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// Shard scaling: batch registration of the Figure-12 PATH workload with
/// the filter partitioned across 1/2/4/8 shards (DESIGN.md §8), each shard
/// running the read-heavy phases on its own scoped thread. Publications are
/// asserted byte-identical against the shards=1 reference before anything
/// is timed; results go to stdout and, as testkit bench-runner JSON lines,
/// to `BENCH_shard_scaling.json`. `--threads` sets the *per-shard* pool
/// width (default 1: shard parallelism only).
fn run_shard_scaling(config: &Config) {
    use mdv_bench::build_sharded_engine;
    use mdv_workload::{benchmark_documents, BenchParams};

    let (rule_counts, batch): (&[u64], u64) = if config.full {
        (&[10_000, 100_000], 1000)
    } else {
        (&[1_000, 10_000], 100)
    };
    let shard_counts = [1usize, 2, 4, 8];
    banner(
        "Shard scaling: PATH rules, sharded batch registration",
        "expected shape: total batch time falls with the shard count up to \
         the machine's core count (flat on single-CPU hosts), publications \
         identical at every point",
    );
    let opts = if std::env::var_os("MDV_BENCH_ITERS").is_some() {
        BenchOptions::from_env()
    } else {
        BenchOptions {
            warmup_iters: 1,
            iters: if config.full { 3 } else { 5 },
        }
    };

    let mut json_lines: Vec<String> = Vec::new();
    println!("rule_count,batch,shards,median_ms,ms_per_doc,speedup_vs_1shard");
    for &rc in rule_counts {
        let params = BenchParams {
            rule_count: rc,
            comp_match_fraction: 0.1,
        };
        let docs = benchmark_documents(0..batch, &params);
        let reference = {
            let mut engine = build_sharded_engine(RuleType::Path, rc, 1, 1);
            engine.register_batch(&docs).expect("reference registers")
        };
        let group = format!("shard_scaling_path_{rc}rules_batch{batch}");
        let mut baseline_ns = 0u64;
        for &shards in &shard_counts {
            // the shard count is fixed at construction, so each point
            // prepares its own rule base
            let base = build_sharded_engine(RuleType::Path, rc, shards, config.threads);
            {
                let mut engine = base.clone();
                let pubs = engine.register_batch(&docs).expect("scaling registers");
                assert_eq!(
                    pubs, reference,
                    "publications diverged at shards={shards} (rules={rc})"
                );
            }
            let stats = measure(
                opts,
                || base.clone(),
                |mut engine| {
                    engine.register_batch(&docs).expect("scaling registers");
                },
            );
            if shards == 1 {
                baseline_ns = stats.median_ns;
            }
            println!(
                "{},{},{},{:.3},{:.5},{:.2}x",
                rc,
                batch,
                shards,
                stats.median_ns as f64 / 1e6,
                stats.median_ns as f64 / 1e6 / batch as f64,
                baseline_ns as f64 / stats.median_ns as f64
            );
            json_lines.push(json_line(&group, &format!("shards_{shards}"), &stats));
        }
    }

    let path = "BENCH_shard_scaling.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write shard-scaling results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// Matching scaling (DESIGN.md §10): batch registration of the full-text
/// `contains` workload under both trigger-matching routes — per-partition
/// scan and inverted token postings — across rule-base sizes and
/// covering-overlap ratios. Publications *and* Figure-9 traces are
/// asserted byte-identical against the scan reference before anything is
/// timed (the same gate pattern as `shard-scaling`); results go to stdout
/// and, as testkit bench-runner JSON lines, to
/// `BENCH_matching_scaling.json`.
fn run_matching_scaling(config: &Config) {
    use mdv_bench::build_contains_engine;
    use mdv_filter::FilterConfig;
    use mdv_workload::{contains_documents, contains_families};

    let (rule_counts, batch): (&[u64], u64) = if config.full {
        (&[10_000, 100_000], 200)
    } else {
        (&[1_000, 5_000], 100)
    };
    let overlaps = [0.0f64, 0.5, 0.9];
    let variants: &[(&str, bool)] = &[("scan", false), ("index", true)];
    banner(
        "Matching scaling: contains rules, scan vs inverted index",
        "expected shape: scan cost grows linearly with the rule count while \
         the index stays near-flat; publications identical at every point",
    );
    let opts = if std::env::var_os("MDV_BENCH_ITERS").is_some() {
        BenchOptions::from_env()
    } else {
        BenchOptions {
            warmup_iters: 1,
            iters: if config.full { 3 } else { 5 },
        }
    };

    let mut json_lines: Vec<String> = Vec::new();
    println!(
        "rule_count,overlap,families,variant,median_ms,ms_per_doc,trigger_evals,speedup_vs_scan"
    );
    for &rc in rule_counts {
        for &overlap in &overlaps {
            let families = contains_families(rc, overlap);
            // the tail of the index range holds the refinement rules, so
            // the batch exercises base-pattern and refinement matches alike
            let docs = contains_documents((rc - batch)..rc, families);
            let base = build_contains_engine(
                rc,
                overlap,
                FilterConfig {
                    use_trigger_index: false,
                    threads: config.threads,
                    ..FilterConfig::default()
                },
            );
            let (ref_pubs, ref_run) = {
                let mut engine = base.clone();
                engine
                    .register_batch_traced(&docs)
                    .expect("reference registers")
            };
            let group = format!(
                "matching_scaling_{rc}rules_ov{}_batch{batch}",
                (overlap * 100.0) as u64
            );
            let mut baseline_ns = 0u64;
            for &(name, index) in variants {
                // byte-identity gate: publications and the iteration trace
                // must match the scan reference before timing
                let evals = {
                    let mut engine = base.clone();
                    engine.set_matching(index);
                    let (pubs, run) = engine
                        .register_batch_traced(&docs)
                        .expect("variant registers");
                    assert_eq!(
                        pubs, ref_pubs,
                        "publications diverged at {name} (rules={rc}, overlap={overlap})"
                    );
                    assert_eq!(
                        run, ref_run,
                        "trace diverged at {name} (rules={rc}, overlap={overlap})"
                    );
                    engine.stats().trigger_evals
                };
                let stats = measure(
                    opts,
                    || {
                        let mut engine = base.clone();
                        engine.set_matching(index);
                        engine
                    },
                    |mut engine| {
                        engine.register_batch(&docs).expect("variant registers");
                    },
                );
                if name == "scan" {
                    baseline_ns = stats.median_ns;
                }
                println!(
                    "{},{},{},{},{:.3},{:.5},{},{:.2}x",
                    rc,
                    overlap,
                    families,
                    name,
                    stats.median_ns as f64 / 1e6,
                    stats.median_ns as f64 / 1e6 / batch as f64,
                    evals,
                    baseline_ns as f64 / stats.median_ns as f64
                );
                json_lines.push(json_line(&group, name, &stats));
            }
        }
    }

    let path = "BENCH_matching_scaling.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write matching-scaling results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// WAL overhead: the same batch registration on the in-memory and durable
/// backends. The CSV table (also the EXPERIMENTS.md table) carries the
/// per-batch averages plus the WAL bytes and commit-group count of the timed
/// batch; the testkit bench runner re-times both backends and writes its
/// JSON lines to `BENCH_wal_overhead.json`.
fn run_wal_overhead(config: &Config) {
    use mdv_bench::build_engine;
    use mdv_workload::{benchmark_documents, BenchParams};

    let points: &[(RuleType, u64, u64)] = if config.full {
        &[
            (RuleType::Oid, 10_000, 100),
            (RuleType::Oid, 10_000, 1_000),
            (RuleType::Path, 10_000, 100),
            (RuleType::Path, 10_000, 1_000),
        ]
    } else {
        &[
            (RuleType::Oid, 1_000, 10),
            (RuleType::Oid, 1_000, 100),
            (RuleType::Path, 1_000, 10),
            (RuleType::Path, 1_000, 100),
        ]
    };
    banner(
        "WAL overhead: in-memory vs durable backend, batch registration",
        "expected shape: overhead shrinks as the batch grows (group commit \
         amortizes the fsync); matches identical on both backends",
    );
    // durable setup rebuilds the rule base per sample, so keep iteration
    // counts small unless MDV_BENCH_ITERS asks otherwise
    let opts = if std::env::var_os("MDV_BENCH_ITERS").is_some() {
        BenchOptions::from_env()
    } else {
        BenchOptions {
            warmup_iters: 1,
            iters: 3,
        }
    };

    let scratch = wal_scratch_dir();
    let mut json_lines: Vec<String> = Vec::new();
    println!("rule_type,rule_count,batch,mem_ms,durable_ms,overhead,wal_bytes,commits");
    for &(rule_type, rule_count, batch) in points {
        let row = wal_overhead_point(
            rule_type,
            rule_count,
            batch,
            &scratch,
            config.min_elapsed_ms,
        );
        println!(
            "{:?},{},{},{:.3},{:.3},{:.2}x,{},{}",
            row.rule_type,
            row.rule_count,
            row.batch_size,
            row.mem_ms,
            row.durable_ms,
            row.overhead,
            row.wal_bytes,
            row.commits
        );

        // the testkit runner's view of the same point, for the JSON artifact
        let params = BenchParams {
            rule_count,
            comp_match_fraction: 0.1,
        };
        let docs = benchmark_documents(0..batch, &params);
        let base = build_engine(rule_type, rule_count);
        let mem_stats = measure(
            opts,
            || base.clone(),
            |mut engine| {
                engine.register_batch(&docs).expect("mem batch registers");
            },
        );
        let mut sample = 0u32;
        let durable_stats = measure(
            opts,
            || {
                sample += 1;
                let dir = scratch.join(format!("{rule_type:?}-{batch}-s{sample}"));
                mdv_bench::build_durable_engine(rule_type, rule_count, &dir)
            },
            |mut engine| {
                engine
                    .register_batch(&docs)
                    .expect("durable batch registers");
            },
        );
        let group = format!("wal_overhead_{rule_type:?}_{rule_count}rules_batch{batch}");
        json_lines.push(json_line(&group, "mem", &mem_stats));
        json_lines.push(json_line(&group, "durable", &durable_stats));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let path = "BENCH_wal_overhead.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write WAL-overhead results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// Storage-recovery study (DESIGN.md §12): the durable engine runs a write
/// workload on a seeded fault-injecting VFS at increasing disk-fault
/// probabilities, is crashed under rotating crash modes, and is reopened
/// with faults disarmed. Per fault probability we report the wall-clock
/// recovery latency (snapshot load + WAL replay) and two rates: snapshot
/// fall-back (the newest epoch was unusable and a previous one recovered
/// the store) and corruption refusal (recovery surfaced a typed `Corrupt`
/// instead of guessing). Every successful recovery is gated on zero
/// committed-write loss — each acked commit group appears in the reopened
/// database. Writes `BENCH_recovery.json`.
fn run_recovery_torture(config: &Config) {
    use mdv_relstore::{
        ColumnDef, CrashMode, DataType, DiskFaultPlan, DurableEngine, Error as StoreError,
        FaultVfs, IndexKind, StorageEngine, TableSchema, Value, CRASH_MODES,
    };
    use mdv_testkit::bench::Stats;

    struct Trial {
        recovery_ns: u64,
        fell_back: bool,
        refused: bool,
    }

    /// One seeded workload + crash + reopen. `p` drives write/short-write/
    /// sync faults, `p/2` drives silent bit rot.
    fn trial(p: f64, seed: u64, mode: CrashMode) -> Trial {
        let vfs = FaultVfs::new(seed);
        let mut eng = DurableEngine::create_with(vfs.clone(), "/store").expect("fresh store");
        eng.set_checkpoint_every(Some(8));
        eng.create_table(
            TableSchema::new(
                "Docs",
                vec![
                    ColumnDef::new("uri", DataType::Str),
                    ColumnDef::new("n", DataType::Int),
                ],
            )
            .expect("schema"),
        )
        .expect("create table");
        eng.create_index("Docs", "by_uri", IndexKind::Hash, &["uri"], true)
            .expect("create index");

        // faults arm only after the store exists: the study measures
        // recovery of a real store, not creation under fire
        vfs.set_plan(DiskFaultPlan {
            read_err: 0.0,
            write_err: p,
            short_write: p,
            sync_err: p,
            corrupt: p / 2.0,
        });
        vfs.arm(true);
        let mut acked: u64 = 0;
        for i in 0..40i64 {
            eng.begin();
            let ok = eng
                .insert(
                    "Docs",
                    vec![Value::Str(format!("doc{i}.rdf")), Value::Int(i)],
                )
                .is_ok()
                && eng.commit().is_ok();
            if ok {
                acked += 1;
            }
            if eng.is_degraded() {
                break; // wedged: reopen is the only way forward, as designed
            }
        }
        vfs.arm(false);
        vfs.crash(mode);

        let injected_corruption = vfs.stats().corruptions > 0;
        let start = std::time::Instant::now();
        match DurableEngine::open_with(vfs.clone(), "/store") {
            Ok(recovered) => {
                let recovery_ns = start.elapsed().as_nanos() as u64;
                let report = recovered
                    .recovery_report()
                    .expect("opened stores carry a report");
                // the gate: every acked commit group survived the crash
                let rows = recovered
                    .database()
                    .table("Docs")
                    .expect("Docs table recovered")
                    .len() as u64;
                assert!(
                    rows >= acked,
                    "lost committed writes: {rows} rows < {acked} acked (p={p}, seed={seed:#x})"
                );
                assert!(
                    !report.fell_back || injected_corruption,
                    "fell back without injected corruption (p={p}, seed={seed:#x})"
                );
                Trial {
                    recovery_ns,
                    fell_back: report.fell_back,
                    refused: false,
                }
            }
            Err(StoreError::Corrupt(_)) if injected_corruption => Trial {
                recovery_ns: start.elapsed().as_nanos() as u64,
                fell_back: false,
                refused: true,
            },
            Err(e) => panic!("recovery failed untyped: {e} (p={p}, seed={seed:#x})"),
        }
    }

    let fault_probs: &[f64] = if config.full {
        &[0.0, 0.01, 0.02, 0.05, 0.10]
    } else {
        &[0.0, 0.02, 0.05]
    };
    let trials: u64 = if config.full { 32 } else { 12 };
    banner(
        "Recovery torture: crash-recovery latency and fall-back rate vs disk-fault probability",
        "expected shape: recovery latency stays flat (bounded by WAL length, \
         not fault rate); fall-back and refusal rates rise with the bit-rot \
         probability and are exactly zero on the fault-free disk; committed \
         writes survive every trial by assertion",
    );

    let mut json_lines: Vec<String> = Vec::new();
    println!("fault_prob,trials,median_recovery_ns,fellback_rate,refusal_rate");
    for &p in fault_probs {
        let mut recovery: Vec<u64> = Vec::new();
        let mut fellback: Vec<u64> = Vec::new();
        let mut refused: Vec<u64> = Vec::new();
        for t in 0..trials {
            let seed = 0xd15c_0000 + (p * 1000.0) as u64 * 0x100 + t;
            let mode = CRASH_MODES[(t as usize) % CRASH_MODES.len()];
            let out = trial(p, seed, mode);
            recovery.push(out.recovery_ns);
            fellback.push(if out.fell_back { 1000 } else { 0 });
            refused.push(if out.refused { 1000 } else { 0 });
        }
        let ns = Stats::from_samples(&recovery);
        let fb = Stats::from_samples(&fellback);
        let rf = Stats::from_samples(&refused);
        println!(
            "{:.2},{},{},{:.3},{:.3}",
            p,
            trials,
            ns.median_ns,
            fb.mean_ns as f64 / 1000.0,
            rf.mean_ns as f64 / 1000.0
        );
        let group = format!("recovery_torture_p{:03}", (p * 100.0) as u64);
        json_lines.push(json_line(&group, "recovery_ns", &ns));
        // rates ride the Stats shape as per-mille samples: mean_ns/1000 is
        // the rate, keeping BENCH_*.json one uniform schema
        json_lines.push(json_line(&group, "fellback_permille", &fb));
        json_lines.push(json_line(&group, "refused_permille", &rf));
    }

    let path = "BENCH_recovery.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write recovery-torture results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// Fault-recovery study: a 3-MDP backbone with one failed-over LMR is driven
/// through a fail/heal cycle at increasing loss rates. Per drop probability
/// we report the logical time-to-reconvergence of the heal (retransmission
/// drain + anti-entropy rounds until all live document sets are
/// byte-identical) and the repair-message overhead (digest/repair messages
/// as a share of all heal-window traffic). Everything here is simulated
/// logical time — deterministic per seed, independent of the host — so the
/// testkit `Stats` fields carry logical milliseconds and message counts,
/// not nanoseconds. Writes `BENCH_backbone_repair.json`.
fn run_backbone_repair(config: &Config) {
    use mdv_rdf::{parse_document, Document, RdfSchema};
    use mdv_system::transport::{FaultPlan, LinkFaults, NetConfig};
    use mdv_system::MdvSystem;
    use mdv_testkit::bench::Stats;

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .int("serverPort")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .expect("study schema is valid")
    }

    fn doc(i: usize, memory: i64) -> Document {
        parse_document(
            &format!("doc{i}.rdf"),
            &format!(
                r##"<rdf:RDF>
                  <CycleProvider rdf:ID="host">
                    <serverHost>node{i}.hub.org</serverHost>
                    <serverPort>{port}</serverPort>
                    <serverInformation rdf:resource="#info"/>
                  </CycleProvider>
                  <ServerInformation rdf:ID="info"><memory>{memory}</memory><cpu>600</cpu></ServerInformation>
                </rdf:RDF>"##,
                port = 4000 + i,
            ),
        )
        .expect("study document is valid")
    }

    /// One seeded fail/heal cycle; returns (reconverge logical ms, repair
    /// messages in the heal window, total messages in the heal window).
    fn trial(drop_prob: f64, seed: u64) -> (u64, u64, u64) {
        let cfg = NetConfig {
            faults: FaultPlan {
                seed,
                default_link: LinkFaults {
                    drop_prob,
                    dup_prob: drop_prob / 2.0,
                    jitter_ms: 10,
                    spike_prob: 0.0,
                    spike_ms: 0,
                },
                ..FaultPlan::default()
            },
            ..NetConfig::default()
        };
        let mut sys = MdvSystem::with_net_config(schema(), cfg);
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).expect("add mdp");
        }
        sys.add_lmr("l1", "m1").expect("add lmr");
        sys.set_backup_mdp("l1", "m2").expect("set backup");
        sys.subscribe(
            "l1",
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .expect("subscribe");
        let homes = ["m1", "m2", "m3"];
        for i in 0..6 {
            sys.register_document(homes[i % 3], &doc(i, 32 + 32 * i as i64))
                .expect("register");
        }
        // the home fails: its mailbox is lost, writes continue elsewhere,
        // and the next subscription exhausts its budget and fails over
        sys.fail_mdp("m1").expect("fail m1");
        for i in 6..10 {
            sys.register_document(homes[1 + i % 2], &doc(i, 96))
                .expect("register during outage");
        }
        sys.subscribe(
            "l1",
            "search ServerInformation s register s where s.cpu >= 600",
        )
        .expect("subscribe during outage");
        assert_eq!(sys.lmr("l1").expect("lmr").mdp(), "m2", "failover happened");
        // the second failure overlaps the heal: documents whose origin (m2)
        // is down when m1 comes back can only reach m1 via anti-entropy
        // from m3 — retransmission covers everything else
        sys.fail_mdp("m2").expect("fail m2");

        let clock_before = sys.network_stats().clock_ms;
        let sent_before = sys.network().log().len();
        sys.heal_mdp("m1").expect("heal m1 reconverges");
        sys.heal_mdp("m2").expect("heal m2 reconverges");
        assert!(sys.backbone_converged());
        let stats = sys.network_stats();
        let log = sys.network().log();
        let window = &log[sent_before..];
        let repair = window
            .iter()
            .filter(|r| matches!(r.kind, "replica-digest" | "repair-request" | "repair-docs"))
            .count() as u64;
        (stats.clock_ms - clock_before, repair, window.len() as u64)
    }

    let drop_probs: &[f64] = if config.full {
        &[0.0, 0.05, 0.10, 0.20, 0.30]
    } else {
        &[0.0, 0.10, 0.25]
    };
    let trials: u64 = if config.full { 20 } else { 8 };
    banner(
        "Backbone repair: fail/heal reconvergence vs loss rate (logical time)",
        "expected shape: reconvergence time grows with the drop probability \
         (more retransmission backoff and repair rounds); repair traffic stays \
         a bounded share of the heal window and is zero only if nothing was \
         missed",
    );

    let mut json_lines: Vec<String> = Vec::new();
    println!("drop_prob,trials,median_reconverge_ms,median_repair_msgs,repair_traffic_share");
    for &p in drop_probs {
        let mut reconverge: Vec<u64> = Vec::new();
        let mut repairs: Vec<u64> = Vec::new();
        let mut totals: Vec<u64> = Vec::new();
        for t in 0..trials {
            let seed = 0xba5e_0000 + (p * 1000.0) as u64 * 64 + t;
            let (ms, repair, total) = trial(p, seed);
            reconverge.push(ms);
            repairs.push(repair);
            totals.push(total);
        }
        let ms_stats = Stats::from_samples(&reconverge);
        let repair_stats = Stats::from_samples(&repairs);
        let share = repairs.iter().sum::<u64>() as f64 / totals.iter().sum::<u64>() as f64;
        println!(
            "{:.2},{},{},{},{:.3}",
            p, trials, ms_stats.median_ns, repair_stats.median_ns, share
        );
        let group = format!("backbone_repair_drop{:02}", (p * 100.0) as u64);
        json_lines.push(json_line(&group, "reconverge_logical_ms", &ms_stats));
        json_lines.push(json_line(&group, "repair_messages", &repair_stats));
    }

    let path = "BENCH_backbone_repair.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write backbone-repair results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// Consistency-vs-availability study: the same 3-MDP/1-LMR deployment and
/// workload, run once under LWW gossip and once under Raft (DESIGN.md §9),
/// compared on three axes — steady-state write latency in logical time,
/// reconvergence after a fail/heal cycle of a voter (including the Raft
/// leader, demonstrating that a committed write survives any minority of
/// failures with automatic LMR re-homing), and behaviour while a permanent
/// partition isolates one MDP (LWW keeps accepting divergent writes on both
/// sides; Raft keeps the majority side available and consistent while the
/// minority entry returns `Unavailable`). Everything is simulated logical
/// time, deterministic per seed. Writes `BENCH_backbone_consensus.json`.
fn run_backbone_consensus(config: &Config) {
    use mdv_rdf::{parse_document, Document, RdfSchema};
    use mdv_system::transport::{FaultPlan, NetConfig};
    use mdv_system::MdvSystem;
    use mdv_testkit::bench::Stats;

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .int("serverPort")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .expect("study schema is valid")
    }

    fn doc(i: usize, memory: i64) -> Document {
        parse_document(
            &format!("doc{i}.rdf"),
            &format!(
                r##"<rdf:RDF>
                  <CycleProvider rdf:ID="host">
                    <serverHost>node{i}.hub.org</serverHost>
                    <serverPort>{port}</serverPort>
                    <serverInformation rdf:resource="#info"/>
                  </CycleProvider>
                  <ServerInformation rdf:ID="info"><memory>{memory}</memory><cpu>600</cpu></ServerInformation>
                </rdf:RDF>"##,
                port = 4000 + i,
            ),
        )
        .expect("study document is valid")
    }

    fn build(raft: bool, seed: u64, faults: FaultPlan) -> MdvSystem {
        let cfg = NetConfig {
            faults,
            ..NetConfig::default()
        };
        let mut sys = MdvSystem::with_net_config(schema(), cfg);
        if raft {
            sys.enable_raft(seed).expect("raft before nodes");
        }
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).expect("add mdp");
        }
        sys.add_lmr("l1", "m1").expect("add lmr");
        if !raft {
            sys.set_backup_mdp("l1", "m2").expect("set backup");
        }
        sys.subscribe(
            "l1",
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .expect("subscribe");
        sys
    }

    /// Steady-state logical write latency: per-write clock delta, entries
    /// rotating over all three MDPs (in Raft mode non-leader entries pay the
    /// forwarding + commit round-trips).
    fn write_latency(raft: bool, seed: u64, writes: usize) -> Vec<u64> {
        let mut sys = build(raft, seed, FaultPlan::default());
        let homes = ["m1", "m2", "m3"];
        let mut samples = Vec::with_capacity(writes);
        for i in 0..writes {
            let before = sys.network_stats().clock_ms;
            sys.register_document(homes[i % 3], &doc(i, 32 + 16 * i as i64))
                .expect("steady-state register");
            samples.push(sys.network_stats().clock_ms - before);
        }
        samples
    }

    /// One fail/heal cycle of `victim` (in Raft mode the *current leader*
    /// dies when `victim` is `None`): writes continue on the survivors,
    /// then the heal reconverges. Returns (reconverge logical ms, messages
    /// in the heal window, committed write survived everywhere).
    fn outage_trial(raft: bool, seed: u64) -> (u64, u64, bool) {
        let mut sys = build(raft, seed, FaultPlan::default());
        for i in 0..4 {
            sys.register_document("m1", &doc(i, 128)).expect("register");
        }
        let victim = if raft {
            sys.raft_leader().expect("leader elected")
        } else {
            "m1".to_owned()
        };
        sys.fail_mdp(&victim).expect("fail victim");
        let survivors: Vec<&str> = ["m1", "m2", "m3"]
            .into_iter()
            .filter(|m| *m != victim)
            .collect();
        for i in 4..8 {
            sys.register_document(survivors[i % 2], &doc(i, 96))
                .expect("register during outage");
        }
        if !raft {
            // control churn exhausts the budget → failover to the backup
            sys.subscribe(
                "l1",
                "search ServerInformation s register s where s.cpu >= 600",
            )
            .expect("subscribe during outage");
        }
        let clock_before = sys.network_stats().clock_ms;
        let sent_before = sys.network().log().len();
        sys.heal_mdp(&victim).expect("heal reconverges");
        let reconverge = sys.network_stats().clock_ms - clock_before;
        let messages = (sys.network().log().len() - sent_before) as u64;
        assert!(sys.backbone_converged(), "heal did not reconverge");
        let survived = (0..8).all(|i| {
            ["m1", "m2", "m3"].iter().all(|m| {
                sys.mdp(m)
                    .expect("mdp")
                    .engine()
                    .document(&format!("doc{i}.rdf"))
                    .is_some()
            })
        });
        (reconverge, messages, survived)
    }

    /// Permanent partition isolating m3: four writes through the majority
    /// entry m1, four attempted through the minority entry m3. Returns
    /// (majority accepted, minority accepted, minority unavailable, docs
    /// missing or stale at m3, logical ms consumed by the partition phase).
    fn partition_trial(raft: bool, seed: u64) -> (u64, u64, u64, u64, u64) {
        let mut faults = FaultPlan::default();
        faults.partition_both("m3", "m1", 2_000, u64::MAX);
        faults.partition_both("m3", "m2", 2_000, u64::MAX);
        let mut sys = build(raft, seed, faults);
        for i in 0..2 {
            sys.register_document("m1", &doc(i, 128))
                .expect("pre-partition register");
        }
        sys.network().advance_clock(2_000); // the split begins
        let clock_before = sys.network_stats().clock_ms;
        let (mut maj, mut min_ok, mut min_unavail) = (0u64, 0u64, 0u64);
        for i in 2..6 {
            if sys.register_document("m1", &doc(i, 128)).is_ok() {
                maj += 1;
            }
        }
        for i in 6..10 {
            match sys.register_document("m3", &doc(i, 128)) {
                Ok(()) => min_ok += 1,
                Err(mdv_system::Error::Unavailable(_)) => min_unavail += 1,
                Err(e) => panic!("unexpected minority-write error: {e}"),
            }
        }
        let stale = (0..10)
            .filter(|i| {
                let uri = format!("doc{i}.rdf");
                let m1 = sys.mdp("m1").expect("m1").engine().document(&uri).is_some();
                let m3 = sys.mdp("m3").expect("m3").engine().document(&uri).is_some();
                m1 != m3
            })
            .count() as u64;
        (
            maj,
            min_ok,
            min_unavail,
            stale,
            sys.network_stats().clock_ms - clock_before,
        )
    }

    let writes = if config.full { 60 } else { 24 };
    let trials: u64 = if config.full { 10 } else { 4 };
    banner(
        "Backbone consensus: LWW gossip vs Raft (logical time)",
        "expected shape: Raft pays a quorum round-trip on every write but \
         heals by log shipping with zero repair traffic; LWW stays available \
         on both sides of a partition at the price of divergence, while the \
         Raft minority entry returns Unavailable and its voter stays on the \
         last committed prefix",
    );

    let mut json_lines: Vec<String> = Vec::new();
    for raft in [false, true] {
        let mode = if raft { "raft" } else { "lww" };
        let group = format!("backbone_consensus_{mode}");

        let lat = write_latency(raft, 0xc0de, writes);
        let lat_stats = Stats::from_samples(&lat);

        let mut reconverge = Vec::new();
        let mut heal_msgs = Vec::new();
        let mut survived_all = true;
        for t in 0..trials {
            let (ms, msgs, survived) = outage_trial(raft, 0xfa11 + t);
            reconverge.push(ms);
            heal_msgs.push(msgs);
            survived_all &= survived;
        }
        let reconverge_stats = Stats::from_samples(&reconverge);
        let heal_stats = Stats::from_samples(&heal_msgs);
        assert!(survived_all, "{mode}: a committed write was lost");

        let (maj, min_ok, min_unavail, stale, part_ms) = partition_trial(raft, 0x59117);

        println!(
            "{mode}: write p50 {} ms | heal p50 {} ms ({} msgs) | partition: \
             majority {maj}/4, minority ok {min_ok}/4, minority unavailable \
             {min_unavail}/4, divergent docs {stale}, phase {part_ms} ms",
            lat_stats.median_ns, reconverge_stats.median_ns, heal_stats.median_ns,
        );
        json_lines.push(json_line(&group, "write_logical_ms", &lat_stats));
        json_lines.push(json_line(&group, "heal_reconverge_ms", &reconverge_stats));
        json_lines.push(json_line(&group, "heal_messages", &heal_stats));
        json_lines.push(json_line(
            &group,
            "partition_majority_accepted",
            &Stats::from_samples(&[maj]),
        ));
        json_lines.push(json_line(
            &group,
            "partition_minority_accepted",
            &Stats::from_samples(&[min_ok]),
        ));
        json_lines.push(json_line(
            &group,
            "partition_minority_unavailable",
            &Stats::from_samples(&[min_unavail]),
        ));
        json_lines.push(json_line(
            &group,
            "partition_divergent_docs",
            &Stats::from_samples(&[stale]),
        ));
        json_lines.push(json_line(
            &group,
            "partition_phase_logical_ms",
            &Stats::from_samples(&[part_ms]),
        ));
        json_lines.push(json_line(
            &group,
            "committed_write_survived_minority_failures",
            &Stats::from_samples(&[u64::from(survived_all)]),
        ));
    }

    let path = "BENCH_backbone_consensus.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write backbone-consensus results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}

/// Placement scaling study (DESIGN.md §11): the same registration/update
/// workload over backbones of N MDPs at replication factor R ∈ {1, 2, all},
/// measuring how the per-node corpus share tracks R/N, the logical write
/// latency with rotating entry points vs placement-aware routing through
/// `mdp_for_uri`, and the placement-digest anti-entropy traffic. Two hard
/// gates ride along: every cell must end with exactly `min(R, N) ×
/// corpus` document copies on the backbone, and the `R = all` cell must be
/// byte-identical, per MDP, to a legacy placement-off run of the same
/// workload (which must emit zero placement messages). Everything is
/// simulated logical time, deterministic. Writes
/// `BENCH_placement_scaling.json`.
fn run_placement_scaling(config: &Config) {
    use std::collections::BTreeMap;

    use mdv_rdf::{parse_document, write_document, Document, RdfSchema};
    use mdv_system::MdvSystem;
    use mdv_testkit::bench::Stats;

    fn schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .int("serverPort")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .expect("study schema is valid")
    }

    fn doc(i: usize, memory: i64) -> Document {
        parse_document(
            &format!("doc{i}.rdf"),
            &format!(
                r##"<rdf:RDF>
                  <CycleProvider rdf:ID="host">
                    <serverHost>node{i}.hub.org</serverHost>
                    <serverPort>{port}</serverPort>
                    <serverInformation rdf:resource="#info"/>
                  </CycleProvider>
                  <ServerInformation rdf:ID="info"><memory>{memory}</memory><cpu>600</cpu></ServerInformation>
                </rdf:RDF>"##,
                port = 4000 + i,
            ),
        )
        .expect("study document is valid")
    }

    fn build(n: usize) -> MdvSystem {
        let mut sys = MdvSystem::new(schema());
        for m in 0..n {
            sys.add_mdp(&format!("m{m}")).expect("add mdp");
        }
        sys.add_lmr("l1", "m0").expect("add lmr");
        sys.subscribe(
            "l1",
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .expect("subscribe");
        sys
    }

    /// The shared workload: half the corpus registered through rotating
    /// entry points (a client that ignores placement), half registered at
    /// the primary named by `mdp_for_uri` (a placement-aware client), then
    /// an update pass. Returns the two per-write logical-latency sample
    /// sets so the cells can contrast the forwarding hop.
    fn run_workload(sys: &mut MdvSystem, n: usize, corpus: usize) -> (Vec<u64>, Vec<u64>) {
        let half = corpus / 2;
        let mut rotating = Vec::with_capacity(half);
        for i in 0..half {
            let entry = format!("m{}", i % n);
            let before = sys.network_stats().clock_ms;
            sys.register_document(&entry, &doc(i, 64 + i as i64))
                .expect("rotating register");
            rotating.push(sys.network_stats().clock_ms - before);
        }
        let mut routed = Vec::with_capacity(corpus - half);
        for i in half..corpus {
            let d = doc(i, 64 + i as i64);
            let home = sys.mdp_for_uri(d.uri()).expect("route").to_owned();
            let before = sys.network_stats().clock_ms;
            sys.register_document(&home, &d).expect("routed register");
            routed.push(sys.network_stats().clock_ms - before);
        }
        for i in (0..corpus).step_by(3) {
            sys.update_document(&format!("m{}", i % n), &doc(i, 512))
                .expect("update");
        }
        // one explicit anti-entropy round so the digest traffic (replica
        // digests on the legacy backbone, placement digests under
        // partitioned replication) shows up in the message counters;
        // repair_backbone would short-circuit on the already-converged state
        sys.anti_entropy_round().expect("anti-entropy round");
        (rotating, routed)
    }

    fn doc_sets(sys: &MdvSystem) -> BTreeMap<String, BTreeMap<String, String>> {
        sys.mdp_names()
            .into_iter()
            .map(|m| {
                let docs = sys
                    .mdp(m)
                    .expect("mdp")
                    .engine()
                    .documents()
                    .map(|d| (d.uri().to_owned(), write_document(d)))
                    .collect();
                (m.to_owned(), docs)
            })
            .collect()
    }

    let corpus = if config.full { 64 } else { 24 };
    let node_counts: &[usize] = if config.full {
        &[3, 4, 5, 6]
    } else {
        &[3, 4, 5]
    };
    banner(
        "Placement scaling: MDP count x replication factor (logical time)",
        "expected shape: per-node corpus share tracks R/N (full replication \
         stores N copies, R=2 stores two wherever N grows); routed writes \
         skip the forwarding hop that rotating-entry writes pay; the R=all \
         cell is byte-identical to the legacy placement-off backbone",
    );

    let mut json_lines: Vec<String> = Vec::new();
    for &n in node_counts {
        // the placement-off baseline the R=all cell must match byte-for-byte
        let mut legacy = build(n);
        run_workload(&mut legacy, n, corpus);
        assert!(legacy.backbone_converged(), "legacy n={n} did not converge");
        assert_eq!(
            legacy.network_stats().placement_messages,
            0,
            "placement-off backbone emitted placement traffic"
        );
        let legacy_docs = doc_sets(&legacy);

        for r in [1, 2, n] {
            let mut sys = build(n);
            sys.set_replication_factor(r).expect("enable placement");
            let (rotating, routed) = run_workload(&mut sys, n, corpus);
            assert!(sys.backbone_converged(), "n={n} r={r} did not converge");

            let counts: Vec<u64> = (0..n)
                .map(|m| {
                    sys.mdp(&format!("m{m}"))
                        .expect("mdp")
                        .engine()
                        .document_count() as u64
                })
                .collect();
            let total: u64 = counts.iter().sum();
            assert_eq!(
                total as usize,
                r.min(n) * corpus,
                "n={n} r={r}: backbone must hold exactly min(R,N) copies per document"
            );
            if r < n {
                assert!(
                    counts.iter().all(|&c| (c as usize) < corpus),
                    "n={n} r={r}: some node still holds the full corpus"
                );
            }
            if r == n {
                assert_eq!(
                    doc_sets(&sys),
                    legacy_docs,
                    "R=all must be byte-identical to legacy full replication"
                );
            }

            let table = sys.placement_table().expect("placement enabled");
            let share_permille = (1000.0 * table.storage_share()).round() as u64;
            let stats = sys.network_stats();
            assert!(
                stats.placement_messages > 0,
                "n={n} r={r}: anti-entropy ran but no placement digests flowed"
            );
            let rotating_stats = Stats::from_samples(&rotating);
            let routed_stats = Stats::from_samples(&routed);
            let count_stats = Stats::from_samples(&counts);
            println!(
                "n={n} r={r}: share {:.0}% | copies {total} | per-node docs p50 {} \
                 | write p50 rotating {} ms, routed {} ms | placement msgs {}",
                100.0 * table.storage_share(),
                count_stats.median_ns,
                rotating_stats.median_ns,
                routed_stats.median_ns,
                stats.placement_messages,
            );

            let group = format!("placement_scaling_n{n}_r{r}");
            json_lines.push(json_line(
                &group,
                "storage_share_permille",
                &Stats::from_samples(&[share_permille]),
            ));
            json_lines.push(json_line(&group, "per_node_documents", &count_stats));
            json_lines.push(json_line(
                &group,
                "copies_total",
                &Stats::from_samples(&[total]),
            ));
            json_lines.push(json_line(
                &group,
                "rotating_write_logical_ms",
                &rotating_stats,
            ));
            json_lines.push(json_line(&group, "routed_write_logical_ms", &routed_stats));
            json_lines.push(json_line(
                &group,
                "placement_messages",
                &Stats::from_samples(&[stats.placement_messages]),
            ));
            json_lines.push(json_line(
                &group,
                "placement_bytes",
                &Stats::from_samples(&[stats.placement_bytes]),
            ));
        }
    }

    let path = "BENCH_placement_scaling.json";
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for line in &json_lines {
        writeln!(file, "{line}").expect("write placement-scaling results");
    }
    println!("wrote {} results to {path}", json_lines.len());
}
