//! The traced run: spans kept in memory, and a replay of every operation's
//! inputs through each layer's public functions.
//!
//! The root span `op.<type>` times the `MdvSystem` call itself. Its child
//! spans are replays made right after the call: the RDF writer and parser,
//! the rule-language front end, one standalone `FilterEngine` per MDP that
//! holds that MDP's rules and documents, and the LMR's query evaluator.
//! The LMR garbage collection of an unsubscribe is the one child measured
//! inside the call. The system layer's self time is a root span minus its
//! children.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mdv_filter::{FilterEngine, FilterStats, Publication, SubscriptionId};
use mdv_rdf::{Document, RdfSchema};
use mdv_system::MdvSystem;

use crate::workload::{Backend, Plan};

/// One timed interval at a layer boundary.
pub struct Span {
    pub parent: Option<usize>,
    /// Index of the timed-phase operation the span belongs to.
    pub op: usize,
    pub name: String,
    /// MDP whose replica engine ran a `filter.*` span.
    pub mdp: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// The layer a span belongs to: its name's first segment, with the
    /// operation roots (`op.*`) attributed to the system layer.
    pub fn layer(&self) -> &str {
        match self.name.split('.').next().unwrap_or("") {
            "op" => "system",
            other => other,
        }
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: impl Into<String>,
        mdp: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> usize {
        self.spans.push(Span {
            parent,
            op,
            name: name.into(),
            mdp,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    pub fn child<T>(&mut self, op: usize, parent: usize, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(op, Some(parent), name, None, (start, Instant::now()));
        out
    }

    /// Writes the spans as JSON lines, times in microseconds since the
    /// start of the timed phase.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| {
            t.checked_duration_since(self.origin)
                .map_or(0.0, |d| d.as_secs_f64() * 1e6)
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"trace\":{},\"layer\":\"{}\",\"name\":\"{}\",\"mdp\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.op,
                s.layer(),
                s.name,
                s.mdp.map_or("null".into(), |m| m.to_string()),
                us(s.start),
                us(s.end),
            )?;
        }
        out.flush()
    }
}

/// The filter counters as one comparable array.
pub fn stats_array(s: &FilterStats) -> [u64; 8] {
    [
        s.documents_registered,
        s.atoms_processed,
        s.trigger_matches,
        s.trigger_evals,
        s.join_evaluations,
        s.probe_cache_hits,
        s.probes_executed,
        s.iterations,
    ]
}

/// Each MDP's filter counters, summed over its filter shards. (The
/// sharded engine's own merged `stats()` view is refreshed only by
/// document operations, so it lags behind subscription changes.)
pub fn deployment_stats<S: Backend>(sys: &MdvSystem<S>) -> Vec<[u64; 8]> {
    sys.mdp_names()
        .iter()
        .map(|m| {
            let engine = sys.mdp(m).expect("named MDP").engine();
            let mut sum = [0u64; 8];
            for shard in 0..engine.shard_count() {
                for (s, v) in sum.iter_mut().zip(stats_array(engine.shard(shard).stats())) {
                    *s += v;
                }
            }
            sum
        })
        .collect()
}

/// A document-side operation to replay.
pub enum DocOp<'a> {
    Register(&'a Document),
    Update(&'a Document),
    Delete(&'a str),
}

/// One replica engine call: which MDP's engine, and when.
pub type Timed = (usize, Instant, Instant);

/// One standalone filter engine per MDP, fed what that MDP's engine is fed.
pub struct Replay {
    engines: Vec<FilterEngine>,
    home: HashMap<String, usize>,
    /// Under placement every MDP holds every rule; otherwise a rule lives
    /// only at its LMR's home MDP.
    mirrored: bool,
    subs: HashMap<(String, u64), Vec<(usize, SubscriptionId)>>,
    /// Resource entries of all publications the replicas produced.
    pub delivered: u64,
}

impl Replay {
    pub fn new(schema: &RdfSchema, plan: &Plan) -> Replay {
        let index: HashMap<&str, usize> = plan
            .mdps
            .iter()
            .enumerate()
            .map(|(i, m)| (m.as_str(), i))
            .collect();
        Replay {
            engines: plan
                .mdps
                .iter()
                .map(|_| FilterEngine::new(schema.clone()))
                .collect(),
            home: plan
                .lmrs
                .iter()
                .map(|(l, m)| (l.clone(), index[m.as_str()]))
                .collect(),
            mirrored: plan.placement_factor.is_some(),
            subs: HashMap::new(),
            delivered: 0,
        }
    }

    /// Replays set-up: the plan's rules, then its documents.
    pub fn load<S: Backend>(
        &mut self,
        sys: &MdvSystem<S>,
        plan: &Plan,
        ids: &[u64],
    ) -> mdv_filter::Result<()> {
        for ((lmr, text), id) in plan.rules.iter().zip(ids) {
            self.subscribe(lmr, *id, text)?;
        }
        for doc in &plan.docs {
            let owners = self.owners(sys, doc.uri());
            self.apply_doc(&owners, DocOp::Register(doc))?;
        }
        Ok(())
    }

    pub fn stats(&self) -> Vec<[u64; 8]> {
        self.engines
            .iter()
            .map(|e| stats_array(e.stats()))
            .collect()
    }

    /// The MDPs holding a document: all of them under full replication,
    /// the shard's owners under placement.
    pub fn owners<S: Backend>(&self, sys: &MdvSystem<S>, uri: &str) -> Vec<usize> {
        let names = sys.mdp_names();
        match sys.placement_table() {
            Some(table) => (0..names.len())
                .filter(|&i| table.owns_doc(names[i], uri))
                .collect(),
            None => (0..names.len()).collect(),
        }
    }

    fn count(&mut self, pubs: &[Publication]) {
        self.delivered += pubs
            .iter()
            .map(|p| (p.added.len() + p.updated.len() + p.removed.len()) as u64)
            .sum::<u64>();
    }

    /// Replays a document operation on each owner. As on an MDP, a write
    /// to a document the replica already holds is an update and a write
    /// to one it lacks is a registration.
    pub fn apply_doc(&mut self, owners: &[usize], op: DocOp) -> mdv_filter::Result<Vec<Timed>> {
        let mut timed = Vec::with_capacity(owners.len());
        for &m in owners {
            let engine = &mut self.engines[m];
            let start = Instant::now();
            let pubs = match op {
                DocOp::Register(doc) | DocOp::Update(doc) => {
                    if engine.document(doc.uri()).is_some() {
                        engine.update_document(doc)?
                    } else {
                        engine.register_document(doc)?
                    }
                }
                DocOp::Delete(uri) => {
                    if engine.document(uri).is_none() {
                        continue;
                    }
                    engine.delete_document(uri)?
                }
            };
            timed.push((m, start, Instant::now()));
            self.count(&pubs);
        }
        Ok(timed)
    }

    fn rule_engines(&self, lmr: &str) -> Vec<usize> {
        if self.mirrored {
            (0..self.engines.len()).collect()
        } else {
            vec![self.home[lmr]]
        }
    }

    pub fn subscribe(&mut self, lmr: &str, id: u64, text: &str) -> mdv_filter::Result<Vec<Timed>> {
        let mut timed = Vec::new();
        let mut subs = Vec::new();
        for m in self.rule_engines(lmr) {
            let start = Instant::now();
            let (sub, initial) = self.engines[m].register_subscription(text)?;
            timed.push((m, start, Instant::now()));
            self.delivered += initial.len() as u64;
            subs.push((m, sub));
        }
        self.subs.insert((lmr.to_owned(), id), subs);
        Ok(timed)
    }

    pub fn unsubscribe(&mut self, lmr: &str, id: u64) -> mdv_filter::Result<Vec<Timed>> {
        let mut timed = Vec::new();
        for (m, sub) in self.subs.remove(&(lmr.to_owned(), id)).unwrap_or_default() {
            let start = Instant::now();
            self.engines[m].unregister_subscription(sub)?;
            timed.push((m, start, Instant::now()));
        }
        Ok(timed)
    }
}
