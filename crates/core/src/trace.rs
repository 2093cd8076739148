//! Execution traces and statistics of filter runs.

use std::fmt;

use crate::atoms::RuleId;

/// The trace of one filter execution: the contents of `ResultObjects` after
/// each iteration (paper Figure 9).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterRun {
    /// Iteration 0 holds the affected triggering rules; iteration *k* holds
    /// the join-rule results of the *k*-th dependency-graph step.
    pub iterations: Vec<Vec<(String, RuleId)>>,
    /// Matches of end rules (rules with subscriptions attached), across all
    /// iterations.
    pub end_matches: Vec<(RuleId, String)>,
}

impl FilterRun {
    /// Renders the trace in the style of Figure 9.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, iter) in self.iterations.iter().enumerate() {
            let title = if i == 0 {
                "Initial Iteration".to_owned()
            } else {
                format!("Iteration {i}")
            };
            out.push_str(&format!("{title}\n"));
            out.push_str("| uri_reference | rule_id |\n");
            let mut rows = iter.clone();
            rows.sort();
            for (uri, rule) in rows {
                out.push_str(&format!("| {uri} | {rule} |\n"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for FilterRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Cumulative statistics of a filter engine, for benchmarks and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Documents registered through `register_batch`.
    pub documents_registered: u64,
    /// Document atoms pushed through trigger matching.
    pub atoms_processed: u64,
    /// Tuples produced by trigger matching (iteration 0).
    pub trigger_matches: u64,
    /// Constant predicates evaluated during trigger matching: partition-scan
    /// rows, inverted-index candidate verifications, and threshold-chain
    /// steps (DESIGN.md §10). String-equality hash probes and class-trigger
    /// probes count zero. Unlike the other counters this one legitimately
    /// varies with [`crate::FilterConfig::use_trigger_index`] — it is how
    /// the ablation benchmarks measure the work saved.
    pub trigger_evals: u64,
    /// Join-rule evaluations (member × delta resource).
    pub join_evaluations: u64,
    /// Counterpart probes answered from the rule-group probe cache.
    pub probe_cache_hits: u64,
    /// Counterpart probes actually executed against the store.
    pub probes_executed: u64,
    /// Filter iterations run (including iteration 0 of each run).
    pub iterations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_figure9_shape() {
        let run = FilterRun {
            iterations: vec![
                vec![
                    ("doc.rdf#info".into(), RuleId(1)),
                    ("doc.rdf#info".into(), RuleId(2)),
                    ("doc.rdf#host".into(), RuleId(3)),
                ],
                vec![("doc.rdf#info".into(), RuleId(4))],
                vec![("doc.rdf#host".into(), RuleId(5))],
            ],
            end_matches: vec![(RuleId(5), "doc.rdf#host".into())],
        };
        let text = run.render();
        assert!(text.contains("Initial Iteration"));
        assert!(text.contains("Iteration 2"));
        assert!(text.contains("| doc.rdf#host | 5 |"));
    }
}
