//! Cross-shard determinism (DESIGN.md §8): a sharded MDP filter must be
//! indistinguishable, byte for byte, from the single-engine filter of
//! record. Publications, Figure-9 iteration traces (in shard-invariant
//! canonical form), and the stats counters are pinned across shard counts
//! {1, 2, 4, 8} × thread counts, and the shards=1 wrapper is *verbatim*
//! identical to the bare [`FilterEngine`] — raw traces and stats included.
//! `ci/check.sh` replays these properties under three fixed seeds; a
//! shard-placement-dependent filter would make every seeded fault scenario
//! in `mdv-system` irreproducible.
//!
//! The workload generators mirror `tests/parallel_determinism.rs` (the
//! paper's Figure 10 shapes); `mdv-workload` dev-depends on this crate, so
//! they are hand-rolled here.

use mdv_filter::{FilterConfig, FilterEngine, Publication, ShardedFilterEngine};
use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};
use mdv_testkit::{prop_assert_eq, property, Source};

fn schema() -> RdfSchema {
    RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory").int("cpu"))
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .build()
        .unwrap()
}

fn make_doc(i: usize, host: &str, port: i64, memory: i64, cpu: i64) -> Document {
    let uri = format!("doc{i}.rdf");
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal(port.to_string()))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new(&uri, "info")),
                ),
        )
        .with_resource(
            Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                .with("memory", Term::literal(memory.to_string()))
                .with("cpu", Term::literal(cpu.to_string())),
        )
}

fn arb_docs(src: &mut Source, max: usize) -> Vec<Document> {
    let n = src.usize_in(1..max);
    (0..n)
        .map(|i| {
            let host = format!(
                "{}.{}",
                src.string_of("abc", 1..4),
                src.choose(&["org", "de"])
            );
            make_doc(
                i,
                &host,
                src.i64_in(1..10),
                src.i64_in(0..200),
                src.i64_in(0..1000),
            )
        })
        .collect()
}

/// The paper's Figure 10 rule shapes (OID/COMP/PATH/JOIN) with random
/// parameters — the same families the benchmarks sweep. Random literals
/// spread same-shape rules across shards (rules route by full-text hash).
fn arb_rules(src: &mut Source, max: usize) -> Vec<String> {
    src.vec(1..max, |src| match src.usize_in(0..6) {
        0 => format!(
            "search CycleProvider c register c where c = 'doc{}.rdf#host'",
            src.usize_in(0..20)
        ),
        1 => format!(
            "search CycleProvider c register c where c.serverPort > {}",
            src.i64_in(0..10)
        ),
        2 => format!(
            "search CycleProvider c register c where c.serverInformation.memory = {}",
            src.i64_in(0..200)
        ),
        3 => format!(
            "search CycleProvider c register c where c.serverInformation.memory > {}",
            src.i64_in(0..200)
        ),
        4 => format!(
            "search CycleProvider c register c \
             where c.serverHost contains '.org' \
             and c.serverInformation.memory >= {} and c.serverInformation.cpu < {}",
            src.i64_in(0..200),
            src.i64_in(0..1000)
        ),
        _ => format!(
            "search ServerInformation s register s where s.memory <= {}",
            src.i64_in(0..200)
        ),
    })
}

fn sharded_with(
    rules: &[String],
    shards: usize,
    threads: usize,
    use_rule_groups: bool,
) -> ShardedFilterEngine {
    let mut e = ShardedFilterEngine::with_config(
        schema(),
        FilterConfig {
            use_rule_groups,
            threads,
            shards,
            ..FilterConfig::default()
        },
    );
    for r in rules {
        e.register_subscription(r).unwrap();
    }
    e
}

property! {
    /// shards=1 is the bare engine in disguise: subscription ids, initial
    /// matches, publications, the *raw* Figure-9 trace, and the stats
    /// counters are byte-identical to a [`FilterEngine`] with the same
    /// config — not merely canonically equivalent.
    fn single_shard_is_verbatim_the_bare_engine(src) {
        let rules = arb_rules(src, 6);
        let docs = arb_docs(src, 10);
        let config = FilterConfig {
            use_rule_groups: src.bool(),
            ..FilterConfig::default()
        };
        prop_assert_eq!(config.shards, 1, "default is unsharded");

        let mut plain = FilterEngine::with_config(schema(), config);
        let mut sharded = ShardedFilterEngine::with_config(schema(), config);
        for r in &rules {
            let (pid, pinit) = plain.register_subscription(r).unwrap();
            let (sid, sinit) = sharded.register_subscription(r).unwrap();
            prop_assert_eq!(pid, sid, "subscription ids diverged");
            prop_assert_eq!(pinit, sinit, "initial matches diverged");
        }
        let (ppubs, prun) = plain.register_batch_traced(&docs).unwrap();
        let (spubs, sruns) = sharded.register_batch_traced(&docs).unwrap();
        prop_assert_eq!(&ppubs, &spubs, "publications diverged");
        prop_assert_eq!(std::slice::from_ref(&prun), &sruns[..], "raw trace diverged");
        prop_assert_eq!(*plain.stats(), sharded.stats(), "stats diverged");

        // A PATH rule registered over existing documents probes the join
        // counterparts without any document operation; the merged stats
        // must count that work too.
        let late = "search CycleProvider c register c where c.serverInformation.memory = 20";
        let (pid, pinit) = plain.register_subscription(late).unwrap();
        let (sid, sinit) = sharded.register_subscription(late).unwrap();
        prop_assert_eq!(pid, sid, "late subscription ids diverged");
        prop_assert_eq!(pinit, sinit, "late initial matches diverged");
        prop_assert_eq!(*plain.stats(), sharded.stats(), "stats diverged after a late rule");
    }

    /// Registration: publications and the canonical Figure-9 trace are
    /// identical for shards ∈ {1, 2, 4, 8} × threads ∈ {1, 4}, and for a
    /// fixed shard count the stats counters are pinned across thread
    /// counts. Freshly registered subscriptions report the same initial
    /// matches everywhere.
    fn registration_is_shard_count_invariant(src) {
        let rules = arb_rules(src, 6);
        let docs = arb_docs(src, 10);
        let use_groups = src.bool();
        let late_rule = arb_rules(src, 2).pop().unwrap();

        let mut reference = sharded_with(&rules, 1, 1, use_groups);
        let (ref_pubs, ref_runs) = reference.register_batch_traced(&docs).unwrap();
        let ref_trace = reference.canonical_trace(&ref_runs);
        let (_, ref_initial) = reference.register_subscription(&late_rule).unwrap();

        for shards in [2usize, 4, 8] {
            let mut stats = Vec::new();
            for threads in [1usize, 4] {
                let mut e = sharded_with(&rules, shards, threads, use_groups);
                let (pubs, runs) = e.register_batch_traced(&docs).unwrap();
                prop_assert_eq!(
                    &pubs, &ref_pubs,
                    "publications diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    &e.canonical_trace(&runs), &ref_trace,
                    "canonical trace diverged at shards={} threads={}", shards, threads
                );
                let (_, initial) = e.register_subscription(&late_rule).unwrap();
                prop_assert_eq!(
                    &initial, &ref_initial,
                    "initial matches diverged at shards={} threads={}", shards, threads
                );
                stats.push(e.stats());
            }
            prop_assert_eq!(
                &stats[0], &stats[1],
                "stats not pinned across thread counts at shards={}", shards
            );
        }
    }

    /// The three-pass update/delete protocol (§3.5) and unregistration are
    /// equally shard-count invariant: the same mutation sequence publishes
    /// the same additions/removals/updates for every shard layout.
    fn updates_are_shard_count_invariant(src) {
        let rules = arb_rules(src, 5);
        let docs = arb_docs(src, 6);
        let bumps: Vec<i64> = docs.iter().map(|_| src.i64_in(0..200)).collect();
        let delete_idx = src.usize_in(0..docs.len());
        let drop_rule = src.usize_in(0..rules.len());

        type Outcome = (Vec<Publication>, Vec<Vec<Publication>>, Vec<Publication>);
        let run = |shards: usize| -> Outcome {
            let mut e = sharded_with(&rules, shards, 1, true);
            let ids: Vec<_> = e.subscriptions().map(|s| s.id).collect();
            let reg = e.register_batch(&docs).unwrap();
            e.unregister_subscription(ids[drop_rule]).unwrap();
            let mut upds = Vec::new();
            for (i, bump) in bumps.iter().enumerate() {
                if i % 2 == 0 {
                    let host = format!("doc{i}-host");
                    let updated = make_doc(i, &host, 5, *bump, 500);
                    upds.push(e.update_document(&updated).unwrap());
                }
            }
            let del = e.delete_document(docs[delete_idx].uri()).unwrap();
            (reg, upds, del)
        };

        let baseline = run(1);
        for shards in [2usize, 4, 8] {
            let got = run(shards);
            prop_assert_eq!(&got, &baseline, "mutations diverged at shards={}", shards);
        }
    }
}
