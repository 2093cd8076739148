//! Sharded filter execution (DESIGN.md §8).
//!
//! A [`ShardedFilterEngine`] partitions one MDP's filter work across N
//! independent [`FilterEngine`] shards:
//!
//! * **Rules** are assigned to shards by FNV-1a hash of their full rule
//!   text. Identical rules (and, within a shard, rules of the same shape)
//!   still deduplicate into the shard's dependency graph and rule groups,
//!   so the paper's probe sharing (§3.3.3) is preserved *per shard*; a
//!   group whose members are spread over several shards re-executes its
//!   counterpart probes once per shard — the documented cost of scaling.
//! * **Documents** are replicated into every shard's base tables (each
//!   shard sees the full metadata). The hash of the subject URI picks the
//!   *owning* shard for point reads ([`ShardedFilterEngine::document`],
//!   [`ShardedFilterEngine::resource`]); replication is what makes every
//!   shard's join probes complete without any cross-shard traffic.
//!
//! The read-heavy phases — validation, atomization, trigger matching,
//! counterpart probes, join-candidate evaluation — run shard-parallel with
//! zero cross-shard locking (`std::thread::scope`, one worker per shard,
//! multiplied by [`FilterConfig::threads`] inside each shard). The merge
//! phase is sequential: shard-local subscription ids are remapped to the
//! wrapper's global ids and the per-subscription lists pass through
//! [`assemble_publications`], whose sort/dedup canonicalization makes the
//! published output byte-identical for every shard count.
//!
//! `shards = 1` (the default) routes everything through a single inner
//! engine whose subscription-id sequence advances in lockstep with the
//! wrapper's, so publications, traces, and stats are bit-for-bit those of
//! a bare [`FilterEngine`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mdv_rdf::{Document, RdfSchema, Resource};
use mdv_relstore::{Database, StorageEngine};

use crate::atoms::{AtomicRule, AtomicRuleKind, RuleId, Side};
use crate::depgraph::DepGraph;
use crate::engine::{FilterConfig, FilterEngine};
use crate::error::{Error, Result};
use crate::registry::{assemble_publications, Publication, Subscription, SubscriptionId};
use crate::trace::{FilterRun, FilterStats};

/// FNV-1a (64-bit); the stable shard-routing hash for rule texts and
/// subject URIs.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A shard-invariant identity for a traced rule. [`AtomicRule::canonical_text`]
/// embeds the shard-local ids of a join's input rules, so it cannot be
/// compared across shard counts; this expands each input reference into the
/// input's own identity, recursively, and re-canonicalizes the operand
/// orientation with the identities (not the local ids) as tie-breaker.
fn rule_identity(graph: &DepGraph, id: RuleId, memo: &mut HashMap<RuleId, String>) -> String {
    if let Some(text) = memo.get(&id) {
        return text.clone();
    }
    let rule = graph.rule(id).expect("traced rule exists in its shard");
    let text = match &rule.kind {
        AtomicRuleKind::Trigger { .. } => AtomicRule::canonical_text(&rule.kind),
        AtomicRuleKind::Join(spec) => {
            let mut j = spec.clone();
            let mut left_id = rule_identity(graph, j.left.rule, memo);
            let mut right_id = rule_identity(graph, j.right.rule, memo);
            if let Some(mirrored) = j.pred.op.mirrored() {
                let left_key = (
                    j.left.class.clone(),
                    j.pred.left_prop.clone(),
                    left_id.clone(),
                );
                let right_key = (
                    j.right.class.clone(),
                    j.pred.right_prop.clone(),
                    right_id.clone(),
                );
                if right_key < left_key {
                    std::mem::swap(&mut j.left, &mut j.right);
                    std::mem::swap(&mut j.pred.left_prop, &mut j.pred.right_prop);
                    j.pred.op = mirrored;
                    j.register = j.register.other();
                    std::mem::swap(&mut left_id, &mut right_id);
                }
            }
            format!(
                "search [{left_id}:{}] a, [{right_id}:{}] b register {} where {}",
                j.left.class,
                j.right.class,
                if j.register == Side::Left { "a" } else { "b" },
                j.pred
            )
        }
    };
    memo.insert(id, text.clone());
    text
}

/// N independent filter shards behind the one-engine API (DESIGN.md §8).
#[derive(Debug, Clone)]
pub struct ShardedFilterEngine<S: StorageEngine = Database> {
    shards: Vec<FilterEngine<S>>,
    /// Global subscription registry (global ids; `end_rules` are ids in the
    /// owning shard's dependency graph).
    subs: BTreeMap<SubscriptionId, Subscription>,
    /// global id → (owning shard, shard-local id).
    routes: BTreeMap<SubscriptionId, (usize, SubscriptionId)>,
    /// Per shard: shard-local id → global id.
    rev: Vec<HashMap<SubscriptionId, SubscriptionId>>,
    next_sub: u64,
    config: FilterConfig,
}

impl ShardedFilterEngine<Database> {
    pub fn new(schema: RdfSchema) -> Self {
        Self::with_config(schema, FilterConfig::default())
    }

    /// Builds `config.shards` in-memory shards.
    pub fn with_config(schema: RdfSchema, config: FilterConfig) -> Self {
        let n = config.shards.max(1);
        let stores = (0..n).map(|_| Database::new()).collect();
        Self::with_storages(stores, schema, config)
    }
}

impl ShardedFilterEngine<Database> {
    /// Explains a rule without registering it, against the rule's owning
    /// shard (so sharing with already registered rules is reported the way
    /// the rule would actually experience it).
    pub fn explain_rule(&self, rule_text: &str) -> Result<String> {
        self.shards[self.rule_shard(rule_text)].explain_rule(rule_text)
    }
}

impl<S: StorageEngine + Send + Sync> ShardedFilterEngine<S> {
    /// Builds one shard per storage backend (the shard count is
    /// `stores.len()`, overriding `config.shards`). The system tier uses
    /// this to give every shard its own durable WAL.
    pub fn with_storages(stores: Vec<S>, schema: RdfSchema, config: FilterConfig) -> Self {
        Self::try_with_storages(stores, schema, config)
            .expect("storage backends accept the filter DDL")
    }

    /// Fallible [`ShardedFilterEngine::with_storages`]: a backend that
    /// fails its initial DDL commit (a disk fault during WAL append or
    /// sync) surfaces `Error::Store` instead of panicking.
    pub fn try_with_storages(
        stores: Vec<S>,
        schema: RdfSchema,
        mut config: FilterConfig,
    ) -> Result<Self> {
        assert!(
            !stores.is_empty(),
            "a sharded engine needs at least one store"
        );
        config.shards = stores.len();
        let shards: Vec<FilterEngine<S>> = stores
            .into_iter()
            .map(|store| FilterEngine::try_with_storage(store, schema.clone(), config))
            .collect::<Result<_>>()?;
        let rev = vec![HashMap::new(); shards.len()];
        Ok(ShardedFilterEngine {
            shards,
            subs: BTreeMap::new(),
            routes: BTreeMap::new(),
            rev,
            next_sub: 0,
            config,
        })
    }

    // ------------------------------------------------------------------
    // Shard topology
    // ------------------------------------------------------------------

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's inner engine (introspection: per-shard graphs, stats).
    pub fn shard(&self, i: usize) -> &FilterEngine<S> {
        &self.shards[i]
    }

    /// Every shard's storage backend, in shard order (shard 0 first).
    pub fn shard_storages(&self) -> impl Iterator<Item = &S> {
        self.shards.iter().map(|s| s.storage())
    }

    /// Mutable access to every shard's backend, in shard order (durability
    /// controls: per-shard checkpointing).
    pub fn shard_storages_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.shards.iter_mut().map(|s| s.storage_mut())
    }

    /// The shard owning a rule text.
    pub fn rule_shard(&self, rule_text: &str) -> usize {
        (fnv1a64(rule_text.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The shard owning a subject URI (data is replicated; the owner only
    /// decides which shard answers point reads).
    pub fn document_shard(&self, uri: &str) -> usize {
        (fnv1a64(uri.as_bytes()) % self.shards.len() as u64) as usize
    }

    // ------------------------------------------------------------------
    // Read API (mirrors FilterEngine; replicated state answers anywhere)
    // ------------------------------------------------------------------

    pub fn schema(&self) -> &RdfSchema {
        self.shards[0].schema()
    }

    /// Shard 0's database (base tables are replicated in every shard).
    pub fn db(&self) -> &Database {
        self.shards[0].db()
    }

    /// Shard 0's storage backend. The system tier keeps its `Sys*` mirror
    /// tables here; per-shard WAL statistics go through
    /// [`ShardedFilterEngine::shard_storages`].
    pub fn storage(&self) -> &S {
        self.shards[0].storage()
    }

    /// Mutable access to shard 0's backend (system-tier mirror tables).
    pub fn storage_mut(&mut self) -> &mut S {
        self.shards[0].storage_mut()
    }

    /// Shard 0's dependency graph. With `shards = 1` (the default) this is
    /// the complete graph; otherwise each shard owns the subgraph of its
    /// rules (see [`ShardedFilterEngine::shard`]).
    pub fn graph(&self) -> &DepGraph {
        self.shards[0].graph()
    }

    /// Merged statistics: `documents_registered` and `atoms_processed` are
    /// shard 0's (every shard processes every document, so the counters are
    /// equal across shards); the trigger/join/probe/iteration counters sum
    /// over shards. With `shards = 1` this is exactly the inner engine's
    /// stats. Across *different* shard counts the summed counters may
    /// legitimately differ (a rule group split over shards re-probes per
    /// shard); the document counters and all published output do not.
    /// Summed on every call, so the work of subscription changes (initial
    /// matches, join probes) shows as soon as it is done.
    pub fn stats(&self) -> FilterStats {
        let mut agg = *self.shards[0].stats();
        for shard in &self.shards[1..] {
            let s = shard.stats();
            agg.trigger_matches += s.trigger_matches;
            agg.trigger_evals += s.trigger_evals;
            agg.join_evaluations += s.join_evaluations;
            agg.probe_cache_hits += s.probe_cache_hits;
            agg.probes_executed += s.probes_executed;
            agg.iterations += s.iterations;
        }
        agg
    }

    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Sets the per-shard worker-thread count (total parallelism is
    /// `shards × threads`). Output is identical for every value.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
        for shard in &mut self.shards {
            shard.set_threads(threads);
        }
    }

    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.values()
    }

    /// The registered document with this URI, answered by its owning shard.
    pub fn document(&self, uri: &str) -> Option<&Document> {
        self.shards[self.document_shard(uri)].document(uri)
    }

    /// All registered documents (arbitrary order; shard 0's replica).
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.shards[0].documents()
    }

    pub fn document_count(&self) -> usize {
        self.shards[0].document_count()
    }

    /// Reconstructs a resource from its owning shard's base tables.
    pub fn resource(&self, uri: &str) -> Result<Option<Resource>> {
        self.shards[self.document_shard(uri)].resource(uri)
    }

    /// See [`FilterEngine::strong_closure`]; base data is replicated, so
    /// shard 0 answers.
    pub fn strong_closure(&self, seeds: &[String]) -> Result<Vec<String>> {
        self.shards[0].strong_closure(seeds)
    }

    /// See [`FilterEngine::strong_referrers`].
    pub fn strong_referrers(&self, uri: &str) -> Result<Vec<String>> {
        self.shards[0].strong_referrers(uri)
    }

    // ------------------------------------------------------------------
    // Commit groups (system tier)
    // ------------------------------------------------------------------

    /// Opens one commit group on *every* shard's backend (depth-counted;
    /// see `StorageEngine::begin`).
    pub fn begin_group(&mut self) {
        for shard in &mut self.shards {
            shard.storage_mut().begin();
        }
    }

    /// Commits the group on every shard's backend, in shard order.
    pub fn commit_group(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.storage_mut().commit()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Subscriptions
    // ------------------------------------------------------------------

    /// Registers a rule on its owning shard and returns the wrapper-global
    /// subscription id. With one shard, global and local ids advance in
    /// lockstep (both only on success), so the wrapper is invisible.
    pub fn register_subscription(
        &mut self,
        rule_text: &str,
    ) -> Result<(SubscriptionId, Vec<String>)> {
        let shard = self.rule_shard(rule_text);
        let (local, initial) = self.shards[shard].register_subscription(rule_text)?;
        let global = SubscriptionId(self.next_sub);
        self.next_sub += 1;
        let end_rules = self.shards[shard]
            .subscription(local)
            .expect("freshly registered subscription exists")
            .end_rules
            .clone();
        self.routes.insert(global, (shard, local));
        self.rev[shard].insert(local, global);
        self.subs.insert(
            global,
            Subscription {
                id: global,
                rule_text: rule_text.to_owned(),
                end_rules,
            },
        );
        Ok((global, initial))
    }

    /// Unregisters a subscription on its owning shard.
    pub fn unregister_subscription(&mut self, id: SubscriptionId) -> Result<()> {
        let (shard, local) = *self
            .routes
            .get(&id)
            .ok_or_else(|| Error::Subscription(format!("unknown subscription {id}")))?;
        self.shards[shard].unregister_subscription(local)?;
        self.routes.remove(&id);
        self.rev[shard].remove(&local);
        self.subs.remove(&id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Documents (broadcast to every shard, shard-parallel)
    // ------------------------------------------------------------------

    /// Registers a single document. See [`ShardedFilterEngine::register_batch`].
    pub fn register_document(&mut self, doc: &Document) -> Result<Vec<Publication>> {
        self.register_batch(std::slice::from_ref(doc))
    }

    /// Registers a batch on every shard in parallel and merges the
    /// per-shard publications into global-id order.
    pub fn register_batch(&mut self, docs: &[Document]) -> Result<Vec<Publication>> {
        let results = self.broadcast(|engine| engine.register_batch(docs));
        self.collect_pubs(results)
    }

    /// Like [`ShardedFilterEngine::register_batch`], also returning each
    /// shard's Figure-9 trace (`shards` runs, in shard order; with one
    /// shard the run is verbatim the bare engine's). Cross-shard-comparable
    /// traces come from [`ShardedFilterEngine::canonical_trace`].
    pub fn register_batch_traced(
        &mut self,
        docs: &[Document],
    ) -> Result<(Vec<Publication>, Vec<FilterRun>)> {
        let results = self.broadcast(|engine| engine.register_batch_traced(docs));
        let mut pubs = Vec::with_capacity(results.len());
        let mut runs = Vec::with_capacity(results.len());
        let mut first_err = None;
        for result in results {
            match result {
                Ok((p, r)) => {
                    pubs.push(p);
                    runs.push(r);
                }
                Err(e) => {
                    let _ = first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok((self.merge_publications(pubs), runs))
    }

    /// Parses RDF/XML sources and registers them as one batch on every
    /// shard. See [`FilterEngine::register_batch_xml`].
    pub fn register_batch_xml(&mut self, sources: &[(String, String)]) -> Result<Vec<Publication>> {
        let results = self.broadcast(|engine| engine.register_batch_xml(sources));
        self.collect_pubs(results)
    }

    /// Re-registers a modified document on every shard. See
    /// [`FilterEngine::update_document`].
    pub fn update_document(&mut self, new_doc: &Document) -> Result<Vec<Publication>> {
        let results = self.broadcast(|engine| engine.update_document(new_doc));
        self.collect_pubs(results)
    }

    /// Deletes a document on every shard. See
    /// [`FilterEngine::delete_document`].
    pub fn delete_document(&mut self, uri: &str) -> Result<Vec<Publication>> {
        let results = self.broadcast(|engine| engine.delete_document(uri));
        self.collect_pubs(results)
    }

    // ------------------------------------------------------------------
    // Traces
    // ------------------------------------------------------------------

    /// Projects per-shard Figure-9 traces onto a shard-invariant form: per
    /// iteration, the sorted, deduplicated `(uri, canonical rule text)`
    /// pairs, trailing empty iterations dropped. A derivation's iteration
    /// index is its rule's depth in the dependency cascade — intrinsic to
    /// the rule, not to the shard evaluating it — and an atomic rule
    /// duplicated across shards derives the same pairs in each, so this
    /// projection is byte-identical for every shard count (the
    /// `shard_determinism` gate pins exactly that).
    pub fn canonical_trace(&self, runs: &[FilterRun]) -> Vec<Vec<(String, String)>> {
        let depth = runs.iter().map(|r| r.iterations.len()).max().unwrap_or(0);
        let mut merged: Vec<BTreeSet<(String, String)>> = vec![BTreeSet::new(); depth];
        for (shard, run) in runs.iter().enumerate() {
            let graph = self.shards[shard].graph();
            let mut memo = HashMap::new();
            for (i, iteration) in run.iterations.iter().enumerate() {
                for (uri, rule) in iteration {
                    merged[i].insert((uri.clone(), rule_identity(graph, *rule, &mut memo)));
                }
            }
        }
        while merged.last().is_some_and(|m| m.is_empty()) {
            merged.pop();
        }
        merged
            .into_iter()
            .map(|m| m.into_iter().collect())
            .collect()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Runs `f` on every shard — scoped threads when there is more than
    /// one, the calling thread otherwise — returning results in shard
    /// order. Every shard holds a full replica, so the closures never
    /// touch shared mutable state: zero cross-shard locking.
    fn broadcast<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut FilterEngine<S>) -> R + Sync,
    {
        if self.shards.len() == 1 {
            return vec![f(&mut self.shards[0])];
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || f(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    /// Separates a broadcast's per-shard results into merged publications
    /// or the first shard's error (shards hold identical replicas, so they
    /// fail identically; shard order makes the choice deterministic).
    fn collect_pubs(&self, results: Vec<Result<Vec<Publication>>>) -> Result<Vec<Publication>> {
        let mut per_shard = Vec::with_capacity(results.len());
        let mut first_err = None;
        for result in results {
            match result {
                Ok(pubs) => per_shard.push(pubs),
                Err(e) => {
                    let _ = first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(self.merge_publications(per_shard))
    }

    /// Sequential merge phase: remap shard-local subscription ids to global
    /// ids and recanonicalize. Each subscription lives on exactly one
    /// shard, so this is a disjoint union; `assemble_publications` (already
    /// applied per shard, idempotent) restores global-id order.
    fn merge_publications(&self, per_shard: Vec<Vec<Publication>>) -> Vec<Publication> {
        if self.shards.len() == 1 {
            return per_shard.into_iter().next().unwrap_or_default();
        }
        let mut merged: BTreeMap<SubscriptionId, Publication> = BTreeMap::new();
        for (shard, pubs) in per_shard.into_iter().enumerate() {
            for p in pubs {
                let global = self.rev[shard][&p.subscription];
                let entry = merged
                    .entry(global)
                    .or_insert_with(|| Publication::new(global));
                entry.added.extend(p.added);
                entry.updated.extend(p.updated);
                entry.removed.extend(p.removed);
            }
        }
        assemble_publications(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_rdf::{Resource, Term, UriRef};

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

    fn doc(i: u64, memory: i64) -> Document {
        let uri = format!("doc{i}.rdf");
        Document::new(&uri)
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal(format!("h{i}.uni-passau.de")))
                    .with("serverPort", Term::literal("5874"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new(&uri, "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal("600")),
            )
    }

    fn rules() -> Vec<String> {
        let mut rules: Vec<String> = (0..6)
            .map(|i| {
                format!("search CycleProvider c register c where c.serverInformation.memory > {i}")
            })
            .collect();
        rules.push("search CycleProvider c register c where c = 'doc1.rdf#host'".into());
        rules.push(
            "search CycleProvider c register c where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation.memory > 2"
                .into(),
        );
        rules
    }

    fn sharded(n: usize) -> ShardedFilterEngine {
        let config = FilterConfig {
            shards: n,
            ..FilterConfig::default()
        };
        let mut engine = ShardedFilterEngine::with_config(schema(), config);
        for rule in rules() {
            engine.register_subscription(&rule).unwrap();
        }
        engine
    }

    #[test]
    fn one_shard_matches_bare_engine_bit_for_bit() {
        let mut bare = FilterEngine::new(schema());
        for rule in rules() {
            bare.register_subscription(&rule).unwrap();
        }
        let mut one = sharded(1);
        let docs: Vec<Document> = (0..4).map(|i| doc(i, 64 + i as i64)).collect();
        let (pubs_bare, run_bare) = bare.register_batch_traced(&docs).unwrap();
        let (pubs_one, runs_one) = one.register_batch_traced(&docs).unwrap();
        assert_eq!(pubs_bare, pubs_one);
        assert_eq!(vec![run_bare], runs_one);
        assert_eq!(*bare.stats(), one.stats());
        let up_bare = bare.update_document(&doc(2, 1)).unwrap();
        let up_one = one.update_document(&doc(2, 1)).unwrap();
        assert_eq!(up_bare, up_one);
        let del_bare = bare.delete_document("doc3.rdf").unwrap();
        let del_one = one.delete_document("doc3.rdf").unwrap();
        assert_eq!(del_bare, del_one);
    }

    #[test]
    fn shard_counts_publish_identically() {
        let docs: Vec<Document> = (0..5).map(|i| doc(i, 60 + i as i64 * 3)).collect();
        let mut reference = sharded(1);
        let ref_pubs = reference.register_batch(&docs).unwrap();
        let ref_up = reference.update_document(&doc(1, 0)).unwrap();
        let ref_del = reference.delete_document("doc0.rdf").unwrap();
        for n in [2, 4, 8] {
            let mut engine = sharded(n);
            assert_eq!(engine.shard_count(), n);
            assert_eq!(
                ref_pubs,
                engine.register_batch(&docs).unwrap(),
                "shards={n}"
            );
            assert_eq!(ref_up, engine.update_document(&doc(1, 0)).unwrap());
            assert_eq!(ref_del, engine.delete_document("doc0.rdf").unwrap());
        }
    }

    #[test]
    fn canonical_trace_is_shard_invariant() {
        let docs: Vec<Document> = (0..4).map(|i| doc(i, 70 + i as i64)).collect();
        let mut reference = sharded(1);
        let (_, ref_runs) = reference.register_batch_traced(&docs).unwrap();
        let ref_trace = reference.canonical_trace(&ref_runs);
        assert!(!ref_trace.is_empty());
        for n in [2, 4, 8] {
            let mut engine = sharded(n);
            let (_, runs) = engine.register_batch_traced(&docs).unwrap();
            assert_eq!(runs.len(), n);
            assert_eq!(ref_trace, engine.canonical_trace(&runs), "shards={n}");
        }
    }

    #[test]
    fn errors_are_deterministic_and_atomic_per_shard() {
        let mut engine = sharded(4);
        engine.register_batch(&[doc(0, 80)]).unwrap();
        // duplicate registration fails identically on every shard
        let err = engine.register_batch(&[doc(0, 80)]).unwrap_err();
        assert!(err.to_string().contains("already registered"));
        let mut one = sharded(1);
        one.register_batch(&[doc(0, 80)]).unwrap();
        assert_eq!(
            one.register_batch(&[doc(0, 80)]).unwrap_err().to_string(),
            err.to_string()
        );
        // unknown ops keep working afterwards
        assert!(engine.update_document(&doc(9, 1)).is_err());
        assert!(engine.delete_document("nope.rdf").is_err());
        engine.register_batch(&[doc(1, 80)]).unwrap();
        assert_eq!(engine.document_count(), 2);
    }

    #[test]
    fn unsubscribe_routes_to_owning_shard() {
        let mut engine = sharded(4);
        let ids: Vec<SubscriptionId> = engine.subscriptions().map(|s| s.id).collect();
        assert_eq!(ids.len(), rules().len());
        for id in &ids {
            engine.unregister_subscription(*id).unwrap();
        }
        assert_eq!(engine.subscriptions().count(), 0);
        for i in 0..engine.shard_count() {
            assert!(engine.shard(i).graph().is_empty(), "shard {i} drained");
        }
        let missing = engine.unregister_subscription(SubscriptionId(999));
        assert!(missing
            .unwrap_err()
            .to_string()
            .contains("unknown subscription"));
    }

    #[test]
    fn empty_shards_do_zero_filter_work() {
        // one rule → one owning shard; the other shards must report zero
        // trigger/join/probe work (an empty shard contributes zero tasks,
        // not a degenerate full scan)
        let config = FilterConfig {
            shards: 4,
            ..FilterConfig::default()
        };
        let mut engine = ShardedFilterEngine::with_config(schema(), config);
        let rule = "search CycleProvider c register c where c.serverInformation.memory > 64";
        engine.register_subscription(rule).unwrap();
        let owner = engine.rule_shard(rule);
        engine.register_batch(&[doc(0, 80), doc(1, 10)]).unwrap();
        for i in 0..4 {
            let s = engine.shard(i).stats();
            assert_eq!(s.documents_registered, 2, "every shard replicates docs");
            if i != owner {
                assert_eq!(s.trigger_matches, 0, "shard {i} owns no rules");
                assert_eq!(s.join_evaluations, 0);
                assert_eq!(s.probes_executed, 0);
            }
        }
        assert!(engine.shard(owner).stats().trigger_matches > 0);
    }

    #[test]
    fn point_reads_route_by_subject_uri_hash() {
        let mut engine = sharded(4);
        engine.register_batch(&[doc(0, 80)]).unwrap();
        let shard = engine.document_shard("doc0.rdf");
        assert!(shard < 4);
        assert!(engine.document("doc0.rdf").is_some());
        let res = engine.resource("doc0.rdf#host").unwrap();
        assert!(res.is_some());
        // replication: every shard can answer the same read
        for i in 0..4 {
            assert!(engine.shard(i).document("doc0.rdf").is_some());
        }
    }
}
