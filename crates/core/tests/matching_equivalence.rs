//! Exactness of the index-accelerated matching route (DESIGN.md §10): for
//! the same rule base and workload, `FilterConfig::use_trigger_index` on
//! must produce the same publications and the same Figure-9 iteration
//! trace as the scan baseline — byte for byte, including under
//! subscription churn that drops and re-adds index postings.
//!
//! Replayed by `ci/check.sh` under seeds 1 / 31337 / 20020226.
//!
//! The workload generators are hand-rolled here (mirroring the covering
//! families the matching-scaling benchmark sweeps) because `mdv-workload`
//! dev-depends on this crate.

use mdv_filter::{FilterConfig, FilterEngine, Publication, SubscriptionId};
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

fn make_doc(i: usize, host: &str, memory: i64, cpu: i64) -> Document {
    let uri = format!("doc{i}.rdf");
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal("5000"))
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

/// Hosts shaped `n{j}.r{k}.grid.{org,de}` — the same token families the
/// `contains` patterns below anchor on, so postings buckets get real
/// collisions and real misses.
fn arb_docs(src: &mut Source, base: usize, max: usize) -> Vec<Document> {
    let n = src.usize_in(1..max);
    (0..n)
        .map(|i| {
            let host = format!(
                "n{}.r{}.grid.{}",
                src.usize_in(0..6),
                src.usize_in(0..4),
                src.choose(&["org", "de"])
            );
            make_doc(base + i, &host, src.i64_in(0..100), src.i64_in(0..1000))
        })
        .collect()
}

/// A rule base heavy on `contains` with constructed covering pairs — for
/// each family `k`, every refinement `n{j}.r{k}.grid` contains the base
/// pattern `.r{k}.grid`, and both share the `r{k}` postings — plus
/// ordered numeric rules (the threshold-chain path), string/numeric
/// equality, and a join shape, so all trigger routes run in one pass.
fn arb_rules(src: &mut Source, max: usize) -> Vec<String> {
    let con = |pat: &str| {
        format!("search CycleProvider c register c where c.serverHost contains '{pat}'")
    };
    src.vec(2..max, |src| match src.usize_in(0..8) {
        0 => con(&format!(".r{}.grid", src.usize_in(0..4))),
        1 | 2 => con(&format!(
            "n{}.r{}.grid",
            src.usize_in(0..6),
            src.usize_in(0..4)
        )),
        3 => con(src.choose(&[".org", ".de", "grid", "n1"]).to_owned()),
        4 => format!(
            "search ServerInformation s register s where s.memory {} {}",
            src.choose(&[">", ">=", "<", "<="]),
            src.i64_in(0..100)
        ),
        5 => format!(
            "search CycleProvider c register c where c.serverInformation.cpu > {}",
            src.i64_in(0..1000)
        ),
        6 => format!(
            "search CycleProvider c register c where c = 'doc{}.rdf#host'",
            src.usize_in(0..20)
        ),
        _ => format!(
            "search CycleProvider c register c \
             where c.serverHost contains '.r{}.grid' \
             and c.serverInformation.memory >= {}",
            src.usize_in(0..4),
            src.i64_in(0..100)
        ),
    })
}

/// `use_trigger_index` off (the scan) and on.
const CONFIGS: [bool; 2] = [false, true];

fn engine_with(rules: &[String], index: bool) -> FilterEngine {
    let mut e = FilterEngine::with_config(
        schema(),
        FilterConfig {
            use_trigger_index: index,
            ..FilterConfig::default()
        },
    );
    for r in rules {
        e.register_subscription(r).unwrap();
    }
    e
}

property! {
    /// One registration pass: publications and the Figure-9 trace agree
    /// on both routes, and stats that are not eval counters agree too.
    fn index_matches_scan(src) {
        let rules = arb_rules(src, 12);
        let docs = arb_docs(src, 0, 12);

        let mut reference = engine_with(&rules, false);
        let (ref_pubs, ref_run) = reference.register_batch_traced(&docs).unwrap();

        for index in CONFIGS {
            let mut e = engine_with(&rules, index);
            let (pubs, run) = e.register_batch_traced(&docs).unwrap();
            prop_assert_eq!(&pubs, &ref_pubs, "publications diverged at index={}", index);
            prop_assert_eq!(&run, &ref_run, "trace diverged at index={}", index);
            prop_assert_eq!(e.stats().trigger_matches, reference.stats().trigger_matches);
        }
    }

    /// Subscription churn: unsubscribing in either order (base patterns
    /// before their refinements, or the reverse) and re-subscribing
    /// afterwards must leave both routes publishing identically at each
    /// step.
    fn matching_survives_subscription_churn(src) {
        let rules = arb_rules(src, 10);
        let docs1 = arb_docs(src, 0, 8);
        let docs2 = arb_docs(src, 100, 8);
        let docs3 = arb_docs(src, 200, 8);

        // which subscriptions to drop, and in which order: ascending
        // registration order kills base (covering) patterns before their
        // refinements; descending does the reverse
        let drop_count = src.usize_in(1..rules.len());
        let ascending = src.bool();
        let resub = src.bool();

        type Outcome = (Vec<Publication>, Vec<Publication>, Vec<Vec<String>>, Vec<Publication>);
        let run = |index: bool| -> Outcome {
            let mut e = FilterEngine::with_config(
                schema(),
                FilterConfig {
                    use_trigger_index: index,
                    ..FilterConfig::default()
                },
            );
            let mut subs = Vec::new();
            for r in &rules {
                subs.push(e.register_subscription(r).unwrap().0);
            }
            let p1 = e.register_batch(&docs1).unwrap();
            let dropped: Vec<SubscriptionId> = if ascending {
                subs.iter().take(drop_count).copied().collect()
            } else {
                subs.iter().rev().take(drop_count).copied().collect()
            };
            for id in &dropped {
                e.unregister_subscription(*id).unwrap();
            }
            let p2 = e.register_batch(&docs2).unwrap();
            let mut initial = Vec::new();
            if resub {
                // re-register the dropped rule texts; initial matches are
                // computed against the existing base data
                let texts: Vec<&String> = if ascending {
                    rules.iter().take(drop_count).collect()
                } else {
                    rules.iter().rev().take(drop_count).collect()
                };
                for t in texts {
                    initial.push(e.register_subscription(t).unwrap().1);
                }
            }
            let p3 = e.register_batch(&docs3).unwrap();
            (p1, p2, initial, p3)
        };

        let baseline = run(false);
        for index in CONFIGS {
            let got = run(index);
            prop_assert_eq!(&got, &baseline, "churn outcome diverged at index={}", index);
        }
    }

    /// The index paths compose with the parallel filter and the update/
    /// delete passes: threads × config sweeps stay byte-identical.
    fn index_is_thread_and_update_invariant(src) {
        let rules = arb_rules(src, 8);
        let docs = arb_docs(src, 0, 6);
        let bump = src.i64_in(0..100);
        let delete_idx = src.usize_in(0..docs.len());

        let run = |index: bool, threads: usize| {
            let mut e = FilterEngine::with_config(
                schema(),
                FilterConfig {
                    use_trigger_index: index,
                    threads,
                    ..FilterConfig::default()
                },
            );
            for r in &rules {
                e.register_subscription(r).unwrap();
            }
            let reg = e.register_batch(&docs).unwrap();
            let upd = e
                .update_document(&make_doc(0, "n1.r1.grid.org", bump, 600))
                .unwrap();
            let del = e.delete_document(docs[delete_idx].uri()).unwrap();
            (reg, upd, del)
        };

        let baseline = run(false, 1);
        for index in CONFIGS {
            for threads in [1usize, 4] {
                let got = run(index, threads);
                prop_assert_eq!(
                    &got, &baseline,
                    "diverged at index={} threads={}", index, threads
                );
            }
        }
    }
}
