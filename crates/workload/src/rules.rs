//! Benchmark rule generation: the four rule types of the paper's Figure 10.
//!
//! ```text
//! OID:  search CycleProvider c register c where c = URI
//! COMP: search CycleProvider c register c where c.synthValue > INT
//! PATH: search CycleProvider c register c
//!       where c.serverInformation.memory = INT
//! JOIN: search CycleProvider c register c
//!       where c.serverHost contains 'uni-passau.de'
//!       and c.serverInformation.cpu = 600
//!       and c.serverInformation.memory = INT
//! ```
//!
//! OID and COMP are pure triggering rules (no decomposition, no join rules);
//! PATH and JOIN access properties of referenced resources, so decomposition
//! creates join rules and the complete filter algorithm runs (paper §4).

use std::fmt;

use crate::documents::provider_uri;

/// The benchmark rule types (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleType {
    Oid,
    Comp,
    Path,
    Join,
}

impl RuleType {
    pub const ALL: [RuleType; 4] = [
        RuleType::Oid,
        RuleType::Comp,
        RuleType::Path,
        RuleType::Join,
    ];

    /// True when rules of this type decompose into join rules (the complete
    /// filter algorithm runs, not just trigger matching).
    pub fn needs_joins(self) -> bool {
        matches!(self, RuleType::Path | RuleType::Join)
    }
}

impl fmt::Display for RuleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleType::Oid => "OID",
            RuleType::Comp => "COMP",
            RuleType::Path => "PATH",
            RuleType::Join => "JOIN",
        };
        f.write_str(s)
    }
}

/// Generates rule `i` of the given type.
pub fn benchmark_rule(rule_type: RuleType, i: u64) -> String {
    match rule_type {
        RuleType::Oid => format!(
            "search CycleProvider c register c where c = '{}'",
            provider_uri(i)
        ),
        RuleType::Comp => {
            format!("search CycleProvider c register c where c.synthValue > {i}")
        }
        RuleType::Path => {
            format!("search CycleProvider c register c where c.serverInformation.memory = {i}")
        }
        RuleType::Join => format!(
            "search CycleProvider c register c \
             where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation.cpu = 600 \
             and c.serverInformation.memory = {i}"
        ),
    }
}

/// Generates the full rule base `0..count`.
pub fn benchmark_rules(rule_type: RuleType, count: u64) -> Vec<String> {
    (0..count).map(|i| benchmark_rule(rule_type, i)).collect()
}

/// Number of covering families in a `contains` rule base of `count` rules
/// at the given overlap ratio: `overlap = 0.0` makes every rule its own
/// family (no covering at all), `overlap → 1.0` collapses the base onto
/// ever fewer shared base patterns.
pub fn contains_families(count: u64, overlap: f64) -> u64 {
    ((count as f64) * (1.0 - overlap.clamp(0.0, 1.0)))
        .ceil()
        .max(1.0) as u64
}

/// A full-text (`contains`) rule base with a tunable overlap profile, the
/// workload of the matching-scaling study (DESIGN.md §10).
///
/// The base splits into [`contains_families`]`(count, overlap)` families.
/// Family `f`'s *base pattern* `.region{f}.grid` is rule `f`; the remaining
/// rules are *refinements* `node{j}.region{f}.grid` dealt round-robin over
/// the families. Every refinement contains its family's base pattern as a
/// substring, so a value matching a refinement also matches its base, and
/// the inverted index buckets each family under its `region{f}` anchor
/// token.
pub fn contains_rules(count: u64, overlap: f64) -> Vec<String> {
    let families = contains_families(count, overlap);
    (0..count)
        .map(|i| {
            let pattern = if i < families {
                format!(".region{i}.grid")
            } else {
                format!("node{}.region{}.grid", i, i % families)
            };
            format!("search CycleProvider c register c where c.serverHost contains '{pattern}'")
        })
        .collect()
}

/// Documents for [`contains_rules`]: document `i`'s CycleProvider lives at
/// host `node{i}.region{i % families}.grid.org`, so it matches its family's
/// base pattern plus (when `i` is a refinement rule index) exactly that one
/// refinement.
pub fn contains_documents(range: std::ops::Range<u64>, families: u64) -> Vec<mdv_rdf::Document> {
    use mdv_rdf::{Document, Resource, Term, UriRef};
    range
        .map(|i| {
            let uri = crate::documents::document_uri(i);
            Document::new(uri.clone())
                .with_resource(
                    Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                        .with(
                            "serverHost",
                            Term::literal(format!(
                                "node{}.region{}.grid.org",
                                i,
                                i % families.max(1)
                            )),
                        )
                        .with("serverPort", Term::literal((5000 + (i % 1000)).to_string()))
                        .with("synthValue", Term::literal("0"))
                        .with(
                            "serverInformation",
                            Term::resource(UriRef::new(&uri, "info")),
                        ),
                )
                .with_resource(
                    Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                        .with("memory", Term::literal(i.to_string()))
                        .with("cpu", Term::literal("600")),
                )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::documents::{benchmark_document, BenchParams};
    use crate::schema::benchmark_schema;
    use mdv_filter::FilterEngine;

    #[test]
    fn rule_shapes_match_figure_10() {
        assert_eq!(
            benchmark_rule(RuleType::Oid, 3),
            "search CycleProvider c register c where c = 'bench3.rdf#host'"
        );
        assert!(benchmark_rule(RuleType::Comp, 5).contains("synthValue > 5"));
        assert!(benchmark_rule(RuleType::Path, 7).contains("serverInformation.memory = 7"));
        let join = benchmark_rule(RuleType::Join, 9);
        assert!(join.contains("contains 'uni-passau.de'"));
        assert!(join.contains("cpu = 600"));
        assert!(join.contains("memory = 9"));
    }

    #[test]
    fn oid_and_comp_are_trigger_only_path_and_join_decompose() {
        let schema = benchmark_schema();
        for rt in RuleType::ALL {
            let mut e = FilterEngine::new(schema.clone());
            e.register_subscription(&benchmark_rule(rt, 1)).unwrap();
            let joins = e
                .graph()
                .rules_sorted()
                .iter()
                .filter(|r| r.is_join())
                .count();
            if rt.needs_joins() {
                assert!(joins > 0, "{rt} must decompose into join rules");
            } else {
                assert_eq!(joins, 0, "{rt} must stay a pure triggering rule");
            }
        }
    }

    #[test]
    fn one_to_one_matching_for_oid_path_join() {
        // "the CycleProvider resource in a document was matched by exactly
        // one rule and each rule matched exactly one resource" (§4)
        let schema = benchmark_schema();
        let params = BenchParams {
            rule_count: 10,
            comp_match_fraction: 0.1,
        };
        for rt in [RuleType::Oid, RuleType::Path, RuleType::Join] {
            let mut e = FilterEngine::new(schema.clone());
            for rule in benchmark_rules(rt, 10) {
                e.register_subscription(&rule).unwrap();
            }
            let docs: Vec<_> = (0..10).map(|i| benchmark_document(i, &params)).collect();
            let pubs = e.register_batch(&docs).unwrap();
            // every rule matched exactly one provider
            assert_eq!(pubs.len(), 10, "{rt}: each of the 10 rules fires once");
            for p in &pubs {
                assert_eq!(p.added.len(), 1, "{rt}: rule matches exactly one resource");
            }
            // and every provider was matched exactly once overall
            let mut matched: Vec<&String> = pubs.iter().flat_map(|p| &p.added).collect();
            matched.sort();
            matched.dedup();
            assert_eq!(matched.len(), 10);
        }
    }

    #[test]
    fn contains_workload_matching_discipline() {
        let schema = benchmark_schema();
        // overlap 0.5 over 8 rules → 4 families: rules 0..4 are base
        // patterns, rules 4..8 refinements dealt round-robin
        let rules = contains_rules(8, 0.5);
        assert_eq!(contains_families(8, 0.5), 4);
        assert!(rules[0].contains("contains '.region0.grid'"));
        assert!(rules[4].contains("contains 'node4.region0.grid'"));
        let mut e = FilterEngine::new(schema.clone());
        for r in &rules {
            e.register_subscription(r).unwrap();
        }
        let docs = contains_documents(0..8, 4);
        for d in &docs {
            schema.validate(d).unwrap();
        }
        let pubs = e.register_batch(&docs).unwrap();
        // every doc matches its family base; docs 4..8 also match their own
        // refinement → base rules fire for 2 docs each, refinements for 1
        assert_eq!(pubs.len(), 8);
        for p in &pubs {
            let expected = if p.subscription.0 < 4 { 2 } else { 1 };
            assert_eq!(p.added.len(), expected, "sub {}", p.subscription);
        }
        // zero overlap → no covering: every doc matches exactly one rule
        let mut e = FilterEngine::new(schema);
        for r in contains_rules(6, 0.0) {
            e.register_subscription(&r).unwrap();
        }
        let pubs = e.register_batch(&contains_documents(0..6, 6)).unwrap();
        assert_eq!(pubs.len(), 6);
        assert!(pubs.iter().all(|p| p.added.len() == 1));
    }

    #[test]
    fn comp_matching_percentage_holds() {
        let schema = benchmark_schema();
        let params = BenchParams {
            rule_count: 100,
            comp_match_fraction: 0.1,
        };
        let mut e = FilterEngine::new(schema);
        for rule in benchmark_rules(RuleType::Comp, 100) {
            e.register_subscription(&rule).unwrap();
        }
        let pubs = e
            .register_document(&benchmark_document(0, &params))
            .unwrap();
        // synthValue = 10 matches rules with INT in 0..10 → 10 of 100 = 10%
        assert_eq!(pubs.len(), 10);
    }
}
