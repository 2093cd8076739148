//! The cache-consistency oracle over public functions: every LMR cache
//! must hold exactly the resources its standing rules match in the live
//! corpus, plus their strong-reference closure, each byte-equal to the
//! reference copy. The reference is a standalone filter engine holding the
//! client's record of the live corpus, evaluated with the naive
//! `query_eval::evaluate`, independent of the deployment's filter runs.

use std::collections::BTreeSet;

use mdv_filter::{query_eval, FilterEngine};
use mdv_rdf::{Document, RdfSchema};
use mdv_rulelang::{normalize, parse_rule, split_or};
use mdv_system::MdvSystem;

use crate::workload::{Backend, Model};

/// Returns one line per mismatch; empty when every cache is consistent.
pub fn check<S: Backend>(sys: &MdvSystem<S>, schema: &RdfSchema, model: &Model) -> Vec<String> {
    let mut problems = Vec::new();
    let docs: Vec<Document> = model.docs.values().cloned().collect();
    let mut reference = FilterEngine::new(schema.clone());
    if let Err(e) = reference.register_batch(&docs) {
        return vec![format!("reference corpus rejected: {e}")];
    }
    // the naive evaluation costs rules × documents; the LMRs are
    // independent, so two threads share them
    let lmrs = sys.lmr_names();
    let expected: Vec<Result<BTreeSet<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [0, 1]
            .map(|part| {
                let (lmrs, reference) = (&lmrs, &reference);
                scope.spawn(move || {
                    lmrs.iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == part)
                        .map(|(i, lmr)| (i, expected_cache(reference, schema, model, lmr)))
                        .collect::<Vec<_>>()
                })
            })
            .into_iter()
            .collect();
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, e)| e).collect()
    });
    for (lmr, expected) in lmrs.iter().zip(expected) {
        let expected = match expected {
            Ok(e) => e,
            Err(e) => {
                problems.push(format!("{lmr}: {e}"));
                continue;
            }
        };
        let node = match sys.lmr(lmr) {
            Ok(node) => node,
            Err(e) => {
                problems.push(format!("{lmr}: {e}"));
                continue;
            }
        };
        let cached: BTreeSet<String> = node.cached_uris().into_iter().collect();
        for uri in cached.difference(&expected) {
            problems.push(format!("{lmr}: caches {uri}, which no rule matches"));
        }
        for uri in expected.difference(&cached) {
            problems.push(format!("{lmr}: misses {uri}"));
        }
        for uri in cached.intersection(&expected) {
            let fresh = match (node.cached_resource(uri), reference.resource(uri)) {
                (Ok(Some(ours)), Ok(Some(truth))) => ours.same_content(&truth),
                _ => false,
            };
            if !fresh {
                problems.push(format!("{lmr}: stale copy of {uri}"));
            }
        }
    }
    problems
}

/// The naive evaluation of one LMR's standing rules plus their strong
/// closure.
fn expected_cache(
    reference: &FilterEngine,
    schema: &RdfSchema,
    model: &Model,
    lmr: &str,
) -> Result<BTreeSet<String>, String> {
    let mut matched = Vec::new();
    for sub in model.subs.iter().filter(|s| s.lmr == lmr) {
        matched.extend(
            evaluate(reference, schema, &sub.text)
                .map_err(|e| format!("rule {:?}: {e}", sub.text))?,
        );
    }
    reference
        .strong_closure(&matched)
        .map(|c| c.into_iter().collect())
        .map_err(|e| format!("strong closure: {e}"))
}

fn evaluate(
    reference: &FilterEngine,
    schema: &RdfSchema,
    text: &str,
) -> Result<Vec<String>, String> {
    let rule = parse_rule(text).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for conj in split_or(&rule) {
        let n = match normalize(&conj, schema) {
            Ok(n) => n,
            Err(mdv_rulelang::Error::Unsatisfiable) => continue,
            Err(e) => return Err(e.to_string()),
        };
        out.extend(query_eval::evaluate(reference.db(), schema, &n).map_err(|e| e.to_string())?);
    }
    Ok(out)
}
