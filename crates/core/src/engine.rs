//! The filter engine (paper §3.4): matching documents against the rule base
//! and evaluating affected join rules incrementally along the global
//! dependency graph.
//!
//! One engine instance backs one Metadata Provider. It owns
//!
//! * the embedded relational database with all filter tables,
//! * the global dependency graph of atomic rules,
//! * the subscription registry,
//! * the registry of documents (for update/delete diffing, §3.5).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use mdv_rdf::{Document, RdfSchema, RefKind, Resource, RDF_SUBJECT};
use mdv_relstore::{Database, StorageEngine};
use mdv_rulelang::{normalize, parse_rule, split_or, typecheck, RuleOp};
use mdv_runtime::pool::parallel_map;

use crate::atoms::{AtomicRuleKind, GroupId, JoinPred, JoinSpec, RuleId, Side, TriggerOp};
use crate::decompose::decompose;
use crate::depgraph::DepGraph;
use crate::error::{Error, Result};
use crate::registry::{assemble_publications, Publication, Subscription, SubscriptionId};
use crate::rule_tables::{
    class_triggers, create_rule_tables, insert_atomic, matching_triggers, remove_atomic,
    TRIGGER_OPS,
};
use crate::store::{create_base_tables, Atom, BaseStore};
use crate::trace::{FilterRun, FilterStats};
use crate::trigger_index::TriggerIndex;

/// Tunables of the engine, used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Share counterpart probes across the join rules of a rule group
    /// (paper §3.3.3). Disabling evaluates every join rule individually.
    pub use_rule_groups: bool,
    /// Worker threads for the read-only filter phases: document validation
    /// and atomization, trigger matching, counterpart probes, and join-rule
    /// candidate evaluation. `1` (the default) runs everything on the
    /// calling thread — bit-for-bit the pre-parallel engine. Any value
    /// yields byte-identical publications and stats; only wall-clock time
    /// changes (DESIGN.md §5, "Parallel filter execution").
    pub threads: usize,
    /// Independent filter shards inside one MDP (DESIGN.md §8). `1` (the
    /// default) is today's exact monolithic engine; honored by
    /// [`crate::ShardedFilterEngine`], ignored by a bare [`FilterEngine`].
    /// Publications are byte-identical for every value.
    pub shards: usize,
    /// Match `contains` triggers through the inverted token postings and
    /// the ordered numeric operators (`<`, `<=`, `>`, `>=`) through sorted
    /// threshold chains (DESIGN.md §10) instead of scanning every rule of
    /// the `(class, property)` partition. On (the default) or off,
    /// publications and traces are byte-identical; only
    /// [`FilterStats::trigger_evals`](crate::FilterStats) and wall-clock
    /// time change.
    pub use_trigger_index: bool,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            use_rule_groups: true,
            threads: 1,
            shards: 1,
            use_trigger_index: true,
        }
    }
}

/// How a filter pass treats the materialized rule results (see §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Normal registration: propagate only tuples not yet materialized and
    /// materialize them (incremental insert pass).
    Insert,
    /// Update pass 2: propagate every match (re-derivations included) and
    /// re-materialize missing tuples.
    Refresh,
    /// Update pass 1: read-only evaluation against the *old* state; nothing
    /// is written, every derivation propagates.
    Collect,
}

/// The MDV filter engine, generic over its storage backend (DESIGN.md §6).
///
/// The default backend is the volatile in-memory [`Database`] — exactly the
/// pre-trait engine, bit for bit. A durable backend
/// ([`mdv_relstore::DurableEngine`]) records every mutation in a write-ahead
/// log and recovers committed state after a crash; the filter algorithm is
/// oblivious to the difference because all reads go through
/// [`FilterEngine::db`] and all writes through the [`StorageEngine`] trait.
#[derive(Debug, Clone)]
pub struct FilterEngine<S: StorageEngine = Database> {
    schema: RdfSchema,
    pub(crate) store: S,
    pub(crate) graph: DepGraph,
    /// Rules whose full results are currently materialized in `RuleResults`.
    pub(crate) materialized: HashSet<RuleId>,
    subs: BTreeMap<SubscriptionId, Subscription>,
    pub(crate) end_subs: HashMap<RuleId, Vec<SubscriptionId>>,
    pub(crate) documents: HashMap<String, Document>,
    /// class → that class plus all transitive subclasses.
    descendants: HashMap<String, Vec<String>>,
    /// class → that class plus all transitive superclasses.
    ancestors: HashMap<String, Vec<String>>,
    next_sub: u64,
    pub(crate) stats: FilterStats,
    config: FilterConfig,
    /// Incremental matching index (inverted `contains` postings, ordered-op
    /// chains). Always maintained; consulted when `use_trigger_index` is on.
    triggers: TriggerIndex,
}

impl FilterEngine<Database> {
    /// Builds an engine on a fresh in-memory database with the default
    /// [`FilterConfig`] (rule groups on, one thread, indexed matching).
    pub fn new(schema: RdfSchema) -> Self {
        Self::with_config(schema, FilterConfig::default())
    }

    /// Builds an engine on a fresh in-memory database with explicit
    /// tunables — the ablation benchmarks' entry point.
    pub fn with_config(schema: RdfSchema, config: FilterConfig) -> Self {
        Self::with_storage(Database::new(), schema, config)
    }
}

impl<S: StorageEngine + Sync> FilterEngine<S> {
    /// Builds an engine on a fresh storage backend: the filter tables are
    /// created through the backend (and thus logged by durable ones).
    ///
    /// Panics if the backend rejects the filter DDL — fine for the volatile
    /// [`Database`], which cannot fail it. Durable backends on real (or
    /// fault-injected) disks should use [`FilterEngine::try_with_storage`],
    /// which surfaces I/O faults as typed errors instead.
    pub fn with_storage(store: S, schema: RdfSchema, config: FilterConfig) -> Self {
        Self::try_with_storage(store, schema, config)
            .expect("storage backend accepts the filter DDL")
    }

    /// Fallible [`FilterEngine::with_storage`]: a backend that fails the
    /// initial DDL commit (a disk fault during WAL append or sync) returns
    /// `Error::Store` rather than panicking.
    pub fn try_with_storage(mut store: S, schema: RdfSchema, config: FilterConfig) -> Result<Self> {
        store.begin();
        create_base_tables(&mut store)?;
        create_rule_tables(&mut store)?;
        store.commit()?;
        // precompute the class hierarchy maps
        let mut ancestors: HashMap<String, Vec<String>> = HashMap::new();
        let mut descendants: HashMap<String, Vec<String>> = HashMap::new();
        for name in schema.class_names() {
            let mut chain = Vec::new();
            let mut cur = Some(name);
            while let Some(c) = cur {
                chain.push(c.to_owned());
                cur = schema.class(c).and_then(|d| d.parent.as_deref());
            }
            for anc in &chain {
                descendants
                    .entry(anc.clone())
                    .or_default()
                    .push(name.to_owned());
            }
            ancestors.insert(name.to_owned(), chain);
        }
        Ok(FilterEngine {
            schema,
            store,
            graph: DepGraph::new(),
            materialized: HashSet::new(),
            subs: BTreeMap::new(),
            end_subs: HashMap::new(),
            documents: HashMap::new(),
            descendants,
            ancestors,
            next_sub: 0,
            stats: FilterStats::default(),
            config,
            triggers: TriggerIndex::default(),
        })
    }

    /// The RDF schema documents are validated against.
    pub fn schema(&self) -> &RdfSchema {
        &self.schema
    }

    /// Read access to the relational database holding the base and filter
    /// tables — every read of the filter algorithm goes through here.
    pub fn db(&self) -> &Database {
        self.store.database()
    }

    /// The storage backend itself (durability controls: checkpointing,
    /// WAL statistics).
    pub fn storage(&self) -> &S {
        &self.store
    }

    /// Mutable access to the storage backend. The system tier uses this to
    /// keep its own durable tables (subscription/document mirrors) in the
    /// same WAL as the filter tables; callers must not touch the filter's
    /// own tables.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the engine, returning the backend.
    pub fn into_storage(self) -> S {
        self.store
    }

    /// The global dependency graph of deduplicated atomic rules (§3.3.2).
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Cumulative filter statistics (documents registered, iterations run,
    /// trigger evaluations, …) since the engine was built.
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// The engine's current tunables.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Sets the worker-thread count for subsequent filter runs. Safe to
    /// flip at any time: publications and stats are identical for every
    /// value (DESIGN.md §5), only wall-clock time changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// Chooses indexed or scan trigger matching for subsequent filter runs
    /// (DESIGN.md §10). Safe to flip at any time — the index structures
    /// are maintained on every subscribe/unsubscribe regardless of the
    /// switch; it only governs whether matching consults them.
    /// Publications and traces are byte-identical either way; the
    /// matching-scaling benchmark flips it to compare the two routes.
    pub fn set_matching(&mut self, use_trigger_index: bool) {
        self.config.use_trigger_index = use_trigger_index;
    }

    /// Maps `f` over `items`, fanning out across `config.threads` scoped
    /// workers when parallelism is enabled and there is enough work,
    /// sequentially otherwise. Results come back in input order either
    /// way, so callers cannot observe the thread count.
    pub(crate) fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.config.threads > 1 && items.len() > 1 {
            parallel_map(items, self.config.threads, f)
        } else {
            items.iter().map(f).collect()
        }
    }

    /// The registered subscription with this id, if any.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    /// All registered subscriptions, in ascending id order.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.values()
    }

    /// The registered document with this URI, if any.
    pub fn document(&self, uri: &str) -> Option<&Document> {
        self.documents.get(uri)
    }

    /// All registered documents (arbitrary order).
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.values()
    }

    /// Number of registered documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// Reconstructs a resource from the base tables.
    pub fn resource(&self, uri: &str) -> Result<Option<Resource>> {
        BaseStore::resource(self.db(), uri)
    }

    fn descendants_of(&self, class: &str) -> &[String] {
        self.descendants.get(class).map_or(&[], |v| v.as_slice())
    }

    fn ancestors_of(&self, class: &str) -> &[String] {
        self.ancestors.get(class).map_or(&[], |v| v.as_slice())
    }

    // ------------------------------------------------------------------
    // Subscription registration (paper §3.3)
    // ------------------------------------------------------------------

    /// Registers a subscription rule. The rule is parsed, split at `or`s,
    /// normalized, typechecked, decomposed, and merged into the global
    /// dependency graph. Returns the subscription id and the URIs of
    /// resources that *already* match (the initial cache fill of the LMR).
    pub fn register_subscription(
        &mut self,
        rule_text: &str,
    ) -> Result<(SubscriptionId, Vec<String>)> {
        // one commit group per registration: a durable backend makes the
        // rule-table mirrors and backfilled materializations atomically
        // durable; committed even on error because the in-memory engine
        // keeps partial state on error and behaviour must not change
        self.store.begin();
        let out = self.register_subscription_inner(rule_text);
        self.store.commit()?;
        out
    }

    fn register_subscription_inner(
        &mut self,
        rule_text: &str,
    ) -> Result<(SubscriptionId, Vec<String>)> {
        let rule = parse_rule(rule_text)?;
        let mut end_rules = Vec::new();
        let mut initial: BTreeSet<String> = BTreeSet::new();
        let mut satisfiable = 0usize;
        for conj in split_or(&rule) {
            let normalized = match normalize(&conj, &self.schema) {
                Ok(n) => n,
                Err(mdv_rulelang::Error::Unsatisfiable) => continue,
                Err(e) => return Err(e.into()),
            };
            satisfiable += 1;
            typecheck(&normalized, &self.schema)?;
            let proto = decompose(&normalized)?;
            let outcome = self.graph.merge(&proto);
            // mirror new atomic rules into the relational rule tables
            for id in &outcome.created {
                let rule = self.graph.rule(*id).expect("created rule exists").clone();
                let text = crate::atoms::AtomicRule::canonical_text(&rule.kind);
                insert_atomic(&mut self.store, &rule, &text)?;
                if let AtomicRuleKind::Trigger {
                    class,
                    pred: Some(p),
                } = &rule.kind
                {
                    self.triggers.insert(rule.id, class, p);
                }
            }
            // any input of a new join rule must be materialized from now on
            for id in &outcome.created {
                let rule = self.graph.rule(*id).expect("created rule exists");
                if let AtomicRuleKind::Join(spec) = &rule.kind {
                    let inputs = [spec.left.rule, spec.right.rule];
                    for input in inputs {
                        self.ensure_materialized(input)?;
                    }
                }
            }
            self.graph.retain(outcome.end);
            end_rules.push(outcome.end);
            // initial matches against the existing base data
            let mut memo = HashMap::new();
            initial.extend(self.eval_rule_full(outcome.end, &mut memo)?);
        }
        if satisfiable == 0 {
            return Err(mdv_rulelang::Error::Unsatisfiable.into());
        }
        let id = SubscriptionId(self.next_sub);
        self.next_sub += 1;
        for end in &end_rules {
            self.end_subs.entry(*end).or_default().push(id);
        }
        self.subs.insert(
            id,
            Subscription {
                id,
                rule_text: rule_text.to_owned(),
                end_rules,
            },
        );
        Ok((id, initial.into_iter().collect()))
    }

    /// Unregisters a subscription, retracting atomic rules nothing else
    /// references (reference-counted, paper §3.3.2).
    pub fn unregister_subscription(&mut self, id: SubscriptionId) -> Result<()> {
        self.store.begin();
        let out = self.unregister_subscription_inner(id);
        self.store.commit()?;
        out
    }

    fn unregister_subscription_inner(&mut self, id: SubscriptionId) -> Result<()> {
        let sub = self
            .subs
            .remove(&id)
            .ok_or_else(|| Error::Subscription(format!("unknown subscription {id}")))?;
        for end in sub.end_rules {
            if let Some(list) = self.end_subs.get_mut(&end) {
                if let Some(pos) = list.iter().position(|s| *s == id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.end_subs.remove(&end);
                }
            }
            let removed = self.graph.release(end);
            // collect surviving inputs whose last dependent may be gone
            let mut orphan_check: BTreeSet<RuleId> = BTreeSet::new();
            for rule in &removed {
                if let AtomicRuleKind::Join(spec) = &rule.kind {
                    orphan_check.insert(spec.left.rule);
                    orphan_check.insert(spec.right.rule);
                }
            }
            for rule in &removed {
                let group_emptied = rule
                    .group
                    .map(|g| self.graph.group_members(g).is_empty())
                    .unwrap_or(false);
                remove_atomic(&mut self.store, rule, group_emptied)?;
                if let AtomicRuleKind::Trigger {
                    class,
                    pred: Some(p),
                } = &rule.kind
                {
                    self.triggers.remove(rule.id, class, p);
                }
                BaseStore::results_drop_rule(&mut self.store, rule.id)?;
                self.materialized.remove(&rule.id);
                orphan_check.remove(&rule.id);
            }
            // surviving rules with no dependents left need no materialization
            for rule_id in orphan_check {
                if self.graph.rule(rule_id).is_some()
                    && self.graph.dependents_of(rule_id).is_empty()
                    && self.materialized.remove(&rule_id)
                {
                    BaseStore::results_drop_rule(&mut self.store, rule_id)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Document registration (paper §3.2 + §3.4)
    // ------------------------------------------------------------------

    /// Registers a single document. See [`FilterEngine::register_batch`].
    pub fn register_document(&mut self, doc: &Document) -> Result<Vec<Publication>> {
        self.register_batch(std::slice::from_ref(doc))
    }

    /// Registers a batch of new documents and runs the filter once over the
    /// whole batch (the paper's batch-registration experiments, §4).
    ///
    /// Publications come back sorted by subscription id with sorted,
    /// deduplicated URI lists — the canonical order every determinism
    /// property in this crate pins. The order is independent of
    /// [`FilterConfig`]: threads, shards, and the matching knobs only
    /// change wall-clock time.
    ///
    /// ```
    /// use mdv_filter::FilterEngine;
    /// use mdv_rdf::{RdfSchema, Document, Resource, Term, UriRef};
    ///
    /// let schema = RdfSchema::builder()
    ///     .class("CycleProvider", |c| c.str("serverHost"))
    ///     .build().unwrap();
    /// let mut engine = FilterEngine::new(schema);
    /// let (sub, _) = engine.register_subscription(
    ///     "search CycleProvider c register c \
    ///      where c.serverHost contains '.uni-passau.de'").unwrap();
    ///
    /// let docs: Vec<Document> = (0..2).map(|i| {
    ///     let uri = format!("doc{i}.rdf");
    ///     Document::new(&uri).with_resource(
    ///         Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
    ///             .with("serverHost", Term::literal(format!("n{i}.uni-passau.de"))))
    /// }).collect();
    ///
    /// let pubs = engine.register_batch(&docs).unwrap();
    /// assert_eq!(pubs.len(), 1); // one publication per matched subscription
    /// assert_eq!(pubs[0].subscription, sub);
    /// assert_eq!(pubs[0].added, vec!["doc0.rdf#host", "doc1.rdf#host"]);
    /// ```
    pub fn register_batch(&mut self, docs: &[Document]) -> Result<Vec<Publication>> {
        Ok(self.register_batch_traced(docs)?.0)
    }

    /// Like [`FilterEngine::register_batch`], also returning the iteration
    /// trace (Figure 9).
    pub fn register_batch_traced(
        &mut self,
        docs: &[Document],
    ) -> Result<(Vec<Publication>, FilterRun)> {
        // one commit group per batch (group commit): a durable backend
        // syncs its log once per batch, not once per row — the WAL-overhead
        // benchmark measures exactly this amortization
        self.store.begin();
        let out = self.register_batch_traced_inner(docs);
        self.store.commit()?;
        out
    }

    fn register_batch_traced_inner(
        &mut self,
        docs: &[Document],
    ) -> Result<(Vec<Publication>, FilterRun)> {
        // validate everything before touching state; the per-document
        // checks are independent and read-only, so they fan out across the
        // pool — scanning the results in document order keeps the reported
        // error identical to the sequential engine's
        let checks = self.par_map(docs, |doc| -> Result<()> {
            if self.documents.contains_key(doc.uri()) {
                return Err(Error::Document(format!(
                    "document '{}' is already registered; use update_document",
                    doc.uri()
                )));
            }
            doc.check_internal_references()?;
            self.schema.validate(doc)?;
            for res in doc.resources() {
                if BaseStore::resource_exists(self.db(), res.uri().as_str())? {
                    return Err(Error::Document(format!(
                        "resource '{}' is already registered",
                        res.uri()
                    )));
                }
            }
            Ok(())
        });
        for check in checks {
            check?;
        }
        // decomposition into atoms is pure per document — parallel; the
        // base-table inserts stay on this thread
        let per_doc_atoms = self.par_map(docs, Atom::from_document);
        let mut atoms = Vec::new();
        for (doc, doc_atoms) in docs.iter().zip(per_doc_atoms) {
            for res in doc.resources() {
                BaseStore::insert_resource(&mut self.store, res, doc.uri())?;
            }
            atoms.extend(doc_atoms);
            self.documents.insert(doc.uri().to_owned(), doc.clone());
            self.stats.documents_registered += 1;
        }
        let run = self.run_filter(&atoms, Mode::Insert)?;
        let mut pubs: BTreeMap<SubscriptionId, Publication> = BTreeMap::new();
        for (end, uri) in &run.end_matches {
            for sub in self.end_subs.get(end).into_iter().flatten() {
                pubs.entry(*sub)
                    .or_insert_with(|| Publication::new(*sub))
                    .added
                    .push(uri.clone());
            }
        }
        Ok((assemble_publications(pubs), run))
    }

    /// Parses a batch of RDF/XML sources — each a `(document_uri, xml)`
    /// pair — across the pool and registers the parsed documents as one
    /// batch. Parse errors are reported in source order, before any state
    /// changes.
    pub fn register_batch_xml(&mut self, sources: &[(String, String)]) -> Result<Vec<Publication>> {
        let parsed = self.par_map(sources, |(uri, xml)| mdv_rdf::parse_document(uri, xml));
        let mut docs = Vec::with_capacity(parsed.len());
        for doc in parsed {
            docs.push(doc?);
        }
        self.register_batch(&docs)
    }

    // ------------------------------------------------------------------
    // The filter proper
    // ------------------------------------------------------------------

    /// Runs the filter over a set of document atoms (paper §3.4): first all
    /// affected triggering rules are determined, then dependent join rules
    /// are evaluated iteratively along the dependency graph.
    pub(crate) fn run_filter(&mut self, atoms: &[Atom], mode: Mode) -> Result<FilterRun> {
        let mut run = FilterRun::default();
        let mut seen: HashSet<(RuleId, String)> = HashSet::new();
        self.stats.atoms_processed += atoms.len() as u64;

        // iteration 0: affected triggering rules
        let (matches, evals) = self.match_triggers(atoms)?;
        self.stats.trigger_matches += matches.len() as u64;
        self.stats.trigger_evals += evals;
        let mut current: Vec<(String, RuleId)> = Vec::new();
        for (uri, rule) in matches {
            if seen.insert((rule, uri.clone())) && self.offer(rule, &uri, mode)? {
                current.push((uri, rule));
            }
        }
        self.record_iteration(&mut run, &current);

        // iterations 1..: dependent join rules
        while !current.is_empty() {
            let next = self.eval_join_iteration(&current, mode, &mut seen)?;
            current = next;
            if !current.is_empty() {
                self.record_iteration(&mut run, &current);
            }
        }
        Ok(run)
    }

    fn record_iteration(&mut self, run: &mut FilterRun, results: &[(String, RuleId)]) {
        self.stats.iterations += 1;
        for (uri, rule) in results {
            if self.end_subs.contains_key(rule) {
                run.end_matches.push((*rule, uri.clone()));
            }
        }
        run.iterations.push(results.to_vec());
    }

    /// Accepts or rejects a derived tuple per the pass mode; accepted tuples
    /// propagate to the next iteration.
    fn offer(&mut self, rule: RuleId, uri: &str, mode: Mode) -> Result<bool> {
        let needs_mat = !self.graph.dependents_of(rule).is_empty();
        match mode {
            Mode::Collect => Ok(true),
            Mode::Refresh => {
                if needs_mat {
                    BaseStore::result_insert(&mut self.store, rule, uri)?;
                }
                Ok(true)
            }
            Mode::Insert => {
                if needs_mat {
                    BaseStore::result_insert(&mut self.store, rule, uri)
                } else {
                    Ok(true)
                }
            }
        }
    }

    /// Joins the batch atoms against the `FilterRules*` tables, returning
    /// the matches plus the number of constant predicates evaluated.
    ///
    /// Per operator, the probe routes through the cheapest exact structure
    /// the config allows (DESIGN.md §10): string equality always uses the
    /// hash index on `(class, property, value)`. With `use_trigger_index`
    /// on, `contains` consults the inverted token postings and the ordered
    /// numeric operators walk the sorted threshold chain; everything else
    /// scans its `(class, property)` partition. All paths emit matches in
    /// ascending rule-id order — the scan's order — so the choice is
    /// invisible in publications and traces.
    fn match_triggers(&self, atoms: &[Atom]) -> Result<(Vec<(String, RuleId)>, u64)> {
        // probe only operator tables that currently hold rules
        let active_ops: Vec<TriggerOp> = TRIGGER_OPS
            .into_iter()
            .filter(|op| {
                self.db()
                    .table(&crate::rule_tables::filter_table_name(*op))
                    .map(|t| !t.is_empty())
                    .unwrap_or(false)
            })
            .collect();
        let class_table_active = self
            .db()
            .table(crate::rule_tables::T_FILTER_RULES)
            .map(|t| !t.is_empty())
            .unwrap_or(false);

        // per-atom probing only reads the trigger tables and the in-memory
        // index; fan out across the pool and concatenate in atom order —
        // identical to the sequential result for any thread count. Eval
        // counts come back per atom and are summed in input order so the
        // stats are thread-deterministic too.
        let indexed = self.config.use_trigger_index;
        let per_atom = self.par_map(atoms, |atom| -> Result<(Vec<(String, RuleId)>, u64)> {
            let mut out = Vec::new();
            let mut evals = 0u64;
            for class in self.ancestors_of(&atom.class) {
                if atom.property == RDF_SUBJECT && class_table_active {
                    for rule in class_triggers(self.db(), class)? {
                        out.push((atom.uri.clone(), rule));
                    }
                }
                for op in &active_ops {
                    let (hits, n) = match *op {
                        TriggerOp::Contains if indexed => {
                            self.triggers
                                .match_contains(class, &atom.property, &atom.value)
                        }
                        TriggerOp::Lt | TriggerOp::Le | TriggerOp::Gt | TriggerOp::Ge
                            if indexed =>
                        {
                            self.triggers
                                .match_ordered(*op, class, &atom.property, &atom.value)
                        }
                        _ => matching_triggers(self.db(), *op, class, &atom.property, &atom.value)?,
                    };
                    evals += n;
                    for rule in hits {
                        out.push((atom.uri.clone(), rule));
                    }
                }
            }
            Ok((out, evals))
        });
        let mut out = Vec::new();
        let mut evals = 0u64;
        for part in per_atom {
            let (matches, n) = part?;
            out.extend(matches);
            evals += n;
        }
        Ok((out, evals))
    }

    /// One iteration of join-rule evaluation: all join rules depending on
    /// the current results are evaluated, grouped by rule group so that
    /// counterpart probes are shared (paper §3.3.3).
    ///
    /// The iteration runs in four phases so the read-heavy middle two can
    /// fan out across the pool while the result stays byte-identical to
    /// the sequential engine for any `config.threads` (DESIGN.md §5):
    ///
    /// 1. **enumerate** (sequential, cheap) one task per `(member, side)`
    ///    with delta input, in canonical order — group id, member id,
    ///    side — and dedup the counterpart probes the group shares;
    /// 2. **probe** (parallel) each distinct probe exactly once against
    ///    the shared read-only store;
    /// 3. **evaluate** (parallel) every task read-only against the shared
    ///    probe results; the per-task candidate vectors concatenate in
    ///    task order, reproducing the sequential candidate order exactly;
    /// 4. **offer** (sequential) the deduped candidates, writing
    ///    materializations — the only mutating step.
    fn eval_join_iteration(
        &mut self,
        current: &[(String, RuleId)],
        mode: Mode,
        seen: &mut HashSet<(RuleId, String)>,
    ) -> Result<Vec<(String, RuleId)>> {
        // delta keyed by producing rule
        let mut delta: HashMap<RuleId, Vec<String>> = HashMap::new();
        for (uri, rule) in current {
            delta.entry(*rule).or_default().push(uri.clone());
        }
        // affected join rules, grouped
        let mut groups: BTreeMap<GroupId, BTreeSet<RuleId>> = BTreeMap::new();
        for rule in delta.keys() {
            for dep in self.graph.dependents_of(*rule) {
                let gid = self
                    .graph
                    .rule(*dep)
                    .and_then(|r| r.group)
                    .expect("dependents are join rules with groups");
                groups.entry(gid).or_default().insert(*dep);
            }
        }

        // With no pool configured, the classic single-pass loop wins: it
        // probes lazily and keeps no lookup/probe side tables. Running the
        // phased body on one thread instead lost all 4 paired runs of the
        // end-to-end benchmark's `subscribe_churn` workload (2-CPU x86-64
        // host): publish latency rose 5–14 % and set-up time 6–33 %
        // (EXPERIMENTS.md, thread scaling). The two bodies must stay
        // result-identical — `tests/parallel_determinism.rs` diffs them
        // (publications, traces, stats) over randomized workloads.
        let candidates = if self.config.threads > 1 {
            self.join_candidates_parallel(&delta, &groups)?
        } else {
            self.join_candidates_sequential(&delta, &groups)?
        };

        // dedup and write materializations (sequential in both modes)
        let mut next = Vec::new();
        for (uri, rule) in candidates {
            if seen.insert((rule, uri.clone())) && self.offer(rule, &uri, mode)? {
                next.push((uri, rule));
            }
        }
        Ok(next)
    }

    /// Join-candidate enumeration exactly as the pre-parallel engine ran
    /// it: one pass over the affected groups, probing lazily through a
    /// per-group probe cache (paper §3.3.3).
    fn join_candidates_sequential(
        &mut self,
        delta: &HashMap<RuleId, Vec<String>>,
        groups: &BTreeMap<GroupId, BTreeSet<RuleId>>,
    ) -> Result<Vec<(String, RuleId)>> {
        let mut candidates: Vec<(String, RuleId)> = Vec::new();
        for members in groups.values() {
            // probe cache shared across the group's members: the probe
            // depends only on (side, uri) because all members share the
            // predicate shape and classes
            let mut cache: HashMap<(Side, String), Vec<String>> = HashMap::new();
            for member in members {
                let spec = match &self.graph.rule(*member).expect("member exists").kind {
                    AtomicRuleKind::Join(spec) => spec.clone(),
                    AtomicRuleKind::Trigger { .. } => unreachable!("dependents are join rules"),
                };
                for side in [Side::Left, Side::Right] {
                    let input = spec.input(side);
                    let Some(uris) = delta.get(&input.rule) else {
                        continue;
                    };
                    let other_rule = spec.input(side.other()).rule;
                    let other_class = spec.input(side.other()).class.clone();
                    for uri in uris {
                        self.stats.join_evaluations += 1;
                        let counterparts: Vec<String> = if self.config.use_rule_groups {
                            match cache.get(&(side, uri.clone())) {
                                Some(hit) => {
                                    self.stats.probe_cache_hits += 1;
                                    hit.clone()
                                }
                                None => {
                                    let fresh = self.probe_counterparts(
                                        &spec.pred,
                                        side,
                                        uri,
                                        &other_class,
                                    )?;
                                    cache.insert((side, uri.clone()), fresh.clone());
                                    fresh
                                }
                            }
                        } else {
                            self.probe_counterparts(&spec.pred, side, uri, &other_class)?
                        };
                        for cu in counterparts {
                            if BaseStore::result_contains(self.db(), other_rule, &cu)? {
                                let reg = if spec.register == side {
                                    uri.clone()
                                } else {
                                    cu.clone()
                                };
                                candidates.push((reg, *member));
                            }
                        }
                    }
                }
            }
        }
        Ok(candidates)
    }

    /// The three read-heavy phases of the parallel join evaluation
    /// (DESIGN.md §5): enumerate one *task* per (member, side) with delta
    /// input — sequentially, in canonical order — plus the distinct
    /// counterpart probes the group shares; run each distinct probe once
    /// across the pool; then evaluate the tasks in parallel. Task results
    /// concatenate in task order and each task walks its delta slice in
    /// order, reproducing the sequential candidate order exactly.
    ///
    /// Tasks — not individual (member, side, uri) lookups — are the unit
    /// of parallelism on purpose: shared triggers can fan a group out to
    /// `members × delta` lookups (10⁸ at the 100k-rule benchmark), and
    /// materializing per-lookup state costs more than the lookups. Per
    /// task the only state is a borrow of the delta slice; stats come out
    /// of the enumeration arithmetic (hits = lookups − distinct probes,
    /// exactly the sequential cache accounting).
    fn join_candidates_parallel(
        &mut self,
        delta: &HashMap<RuleId, Vec<String>>,
        groups: &BTreeMap<GroupId, BTreeSet<RuleId>>,
    ) -> Result<Vec<(String, RuleId)>> {
        // phase 1: enumerate tasks and the distinct probes they share
        struct Task<'a> {
            member: RuleId,
            register: Side,
            side: Side,
            gid: GroupId,
            uris: &'a [String],
            other_rule: RuleId,
            pred: JoinPred,
            other_class: String,
        }
        let mut tasks: Vec<Task> = Vec::new();
        let mut probes: Vec<(JoinPred, Side, String, String)> = Vec::new();
        // (group, side) → uri → index into `probes`
        let mut probe_index: HashMap<(GroupId, Side), HashMap<&str, usize>> = HashMap::new();
        // (group, side) → input rules whose delta is already in the probe
        // set; members sharing an input contribute no new probes
        let mut merged: HashMap<(GroupId, Side), HashSet<RuleId>> = HashMap::new();
        for (gid, members) in groups {
            for member in members {
                let spec = match &self.graph.rule(*member).expect("member exists").kind {
                    AtomicRuleKind::Join(spec) => spec.clone(),
                    AtomicRuleKind::Trigger { .. } => unreachable!("dependents are join rules"),
                };
                for side in [Side::Left, Side::Right] {
                    let input = spec.input(side);
                    let Some(uris) = delta.get(&input.rule) else {
                        continue;
                    };
                    let other_rule = spec.input(side.other()).rule;
                    let other_class = spec.input(side.other()).class.clone();
                    self.stats.join_evaluations += uris.len() as u64;
                    if self.config.use_rule_groups {
                        // the probe depends only on (side, uri) within a
                        // group: all members share the predicate shape and
                        // classes. Every lookup beyond the first of its
                        // (side, uri) is a cache hit, as in the sequential
                        // per-group cache.
                        if merged.entry((*gid, side)).or_default().insert(input.rule) {
                            let index = probe_index.entry((*gid, side)).or_default();
                            for uri in uris {
                                if index.contains_key(uri.as_str()) {
                                    self.stats.probe_cache_hits += 1;
                                } else {
                                    probes.push((
                                        spec.pred.clone(),
                                        side,
                                        uri.clone(),
                                        other_class.clone(),
                                    ));
                                    index.insert(uri.as_str(), probes.len() - 1);
                                }
                            }
                        } else {
                            self.stats.probe_cache_hits += uris.len() as u64;
                        }
                    } else {
                        // ungrouped mode probes once per lookup (no cache);
                        // the tasks execute those probes inline below
                        self.stats.probes_executed += uris.len() as u64;
                    }
                    tasks.push(Task {
                        member: *member,
                        register: spec.register,
                        side,
                        gid: *gid,
                        uris,
                        other_rule,
                        pred: spec.pred.clone(),
                        other_class,
                    });
                }
            }
        }
        self.stats.probes_executed += probes.len() as u64;

        // phase 2: run each distinct probe once (read-only, parallel)
        let probed = self.par_map(&probes, |(pred, side, uri, other_class)| {
            self.probe_counterparts_ro(pred, *side, uri, other_class)
        });
        let mut counterparts: Vec<Vec<String>> = Vec::with_capacity(probed.len());
        for p in probed {
            counterparts.push(p?);
        }

        // phase 3: evaluate every task (read-only, parallel)
        let use_groups = self.config.use_rule_groups;
        let candidate_parts = self.par_map(&tasks, |t| -> Result<Vec<(String, RuleId)>> {
            let mut part = Vec::new();
            let index = probe_index.get(&(t.gid, t.side));
            for uri in t.uris {
                let inline_probe;
                let cps: &[String] = if use_groups {
                    let idx = index.expect("task's probes were enumerated")[uri.as_str()];
                    &counterparts[idx]
                } else {
                    inline_probe =
                        self.probe_counterparts_ro(&t.pred, t.side, uri, &t.other_class)?;
                    &inline_probe
                };
                for cu in cps {
                    if BaseStore::result_contains(self.db(), t.other_rule, cu)? {
                        let reg = if t.register == t.side {
                            uri.clone()
                        } else {
                            cu.clone()
                        };
                        part.push((reg, t.member));
                    }
                }
            }
            Ok(part)
        });
        let mut candidates: Vec<(String, RuleId)> = Vec::new();
        for part in candidate_parts {
            candidates.extend(part?);
        }
        Ok(candidates)
    }

    /// Finds, for one resource on one side of a join predicate, the
    /// candidate counterpart resources on the other side (membership in the
    /// other input's results is checked by the caller).
    pub(crate) fn probe_counterparts(
        &mut self,
        pred: &JoinPred,
        side: Side,
        uri: &str,
        other_class: &str,
    ) -> Result<Vec<String>> {
        self.stats.probes_executed += 1;
        self.probe_counterparts_ro(pred, side, uri, other_class)
    }

    /// The read-only body of [`FilterEngine::probe_counterparts`] — shared
    /// `&self` so pool workers can probe concurrently; stats accounting
    /// stays with the callers.
    fn probe_counterparts_ro(
        &self,
        pred: &JoinPred,
        side: Side,
        uri: &str,
        other_class: &str,
    ) -> Result<Vec<String>> {
        let (my_prop, other_prop) = match side {
            Side::Left => (&pred.left_prop, &pred.right_prop),
            Side::Right => (&pred.right_prop, &pred.left_prop),
        };
        let my_values = BaseStore::values_of(self.db(), uri, my_prop)?;
        let holds = |other_value: &str, my_value: &str| match side {
            Side::Left => pred.value_matches(my_value, other_value),
            Side::Right => pred.value_matches(other_value, my_value),
        };
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let other_classes: Vec<String> = self.descendants_of(other_class).to_vec();
        for mv in &my_values {
            if pred.op == RuleOp::Eq {
                if other_prop == RDF_SUBJECT {
                    // reference fast path: the counterpart's URI is the value
                    if seen.insert(mv.clone()) {
                        out.push(mv.clone());
                    }
                } else {
                    for oc in &other_classes {
                        for cu in BaseStore::resources_with_value(self.db(), oc, other_prop, mv)? {
                            if seen.insert(cu.clone()) {
                                out.push(cu);
                            }
                        }
                    }
                }
            } else {
                // non-equality: scan the (class, property) partitions
                for oc in &other_classes {
                    for (cu, value) in BaseStore::partition(self.db(), oc, other_prop)? {
                        if holds(&value, mv) && seen.insert(cu.clone()) {
                            out.push(cu);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Full (non-incremental) evaluation: subscription backfill
    // ------------------------------------------------------------------

    /// Evaluates an atomic rule against the full base data (used when a new
    /// subscription arrives and must see already-registered metadata, and to
    /// backfill materializations).
    pub(crate) fn eval_rule_full(
        &mut self,
        rule: RuleId,
        memo: &mut HashMap<RuleId, Vec<String>>,
    ) -> Result<Vec<String>> {
        if let Some(hit) = memo.get(&rule) {
            return Ok(hit.clone());
        }
        if self.materialized.contains(&rule) {
            let results = BaseStore::results_of(self.db(), rule)?;
            memo.insert(rule, results.clone());
            return Ok(results);
        }
        let kind = self
            .graph
            .rule(rule)
            .expect("evaluating unknown rule")
            .kind
            .clone();
        let results: Vec<String> = match &kind {
            AtomicRuleKind::Trigger { class, pred: None } => {
                let mut out = Vec::new();
                for c in self.descendants_of(class).to_vec() {
                    out.extend(BaseStore::resources_of_class(self.db(), &c)?);
                }
                out
            }
            AtomicRuleKind::Trigger {
                class,
                pred: Some(p),
            } => {
                let mut out = Vec::new();
                for c in self.descendants_of(class).to_vec() {
                    if p.op == TriggerOp::EqStr {
                        out.extend(BaseStore::resources_with_value(
                            self.db(),
                            &c,
                            &p.property,
                            &p.value,
                        )?);
                    } else {
                        for (uri, value) in BaseStore::partition(self.db(), &c, &p.property)? {
                            if p.op.matches(&value, &p.value) {
                                out.push(uri);
                            }
                        }
                    }
                }
                out
            }
            AtomicRuleKind::Join(spec) => self.eval_join_full(spec, memo)?,
        };
        let mut results = results;
        results.sort();
        results.dedup();
        memo.insert(rule, results.clone());
        Ok(results)
    }

    fn eval_join_full(
        &mut self,
        spec: &JoinSpec,
        memo: &mut HashMap<RuleId, Vec<String>>,
    ) -> Result<Vec<String>> {
        let left = self.eval_rule_full(spec.left.rule, memo)?;
        let right: HashSet<String> = self
            .eval_rule_full(spec.right.rule, memo)?
            .into_iter()
            .collect();
        let mut out = Vec::new();
        for uri in &left {
            let counterparts =
                self.probe_counterparts(&spec.pred, Side::Left, uri, &spec.right.class)?;
            let matched: Vec<&String> = counterparts
                .iter()
                .filter(|cu| right.contains(*cu))
                .collect();
            if matched.is_empty() {
                continue;
            }
            match spec.register {
                Side::Left => out.push(uri.clone()),
                Side::Right => out.extend(matched.into_iter().cloned()),
            }
        }
        Ok(out)
    }

    /// Guarantees that a rule's full results are materialized (it gained a
    /// dependent join rule).
    fn ensure_materialized(&mut self, rule: RuleId) -> Result<()> {
        if self.materialized.contains(&rule) {
            return Ok(());
        }
        let mut memo = HashMap::new();
        let results = self.eval_rule_full(rule, &mut memo)?;
        for uri in results {
            BaseStore::result_insert(&mut self.store, rule, &uri)?;
        }
        self.materialized.insert(rule);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point queries used by the update protocol and the system tier
    // ------------------------------------------------------------------

    /// Checks whether one resource currently matches one atomic rule,
    /// without touching materializations.
    pub fn check_match(&mut self, rule: RuleId, uri: &str) -> Result<bool> {
        let mut memo = HashMap::new();
        self.check_match_memo(rule, uri, &mut memo)
    }

    fn check_match_memo(
        &mut self,
        rule: RuleId,
        uri: &str,
        memo: &mut HashMap<(RuleId, String), bool>,
    ) -> Result<bool> {
        if let Some(&hit) = memo.get(&(rule, uri.to_owned())) {
            return Ok(hit);
        }
        // seed to break cycles defensively (the graph is acyclic by
        // construction, but memoization makes this loop-proof)
        memo.insert((rule, uri.to_owned()), false);
        let kind = self
            .graph
            .rule(rule)
            .expect("checking unknown rule")
            .kind
            .clone();
        let result = match &kind {
            AtomicRuleKind::Trigger { class, pred } => {
                let class_ok = match BaseStore::resource_class(self.db(), uri)? {
                    Some(actual) => self.schema.is_subclass_of(&actual, class),
                    None => false,
                };
                class_ok
                    && match pred {
                        None => true,
                        Some(p) => BaseStore::values_of(self.db(), uri, &p.property)?
                            .iter()
                            .any(|v| p.op.matches(v, &p.value)),
                    }
            }
            AtomicRuleKind::Join(spec) => {
                let reg = spec.register_input().clone();
                let other = spec.input(spec.register.other()).clone();
                if !self.check_match_memo(reg.rule, uri, memo)? {
                    false
                } else {
                    let counterparts =
                        self.probe_counterparts(&spec.pred, spec.register, uri, &other.class)?;
                    let mut ok = false;
                    for cu in counterparts {
                        if self.check_match_memo(other.rule, &cu, memo)? {
                            ok = true;
                            break;
                        }
                    }
                    ok
                }
            }
        };
        memo.insert((rule, uri.to_owned()), result);
        Ok(result)
    }

    /// Computes the strong-reference closure of a resource set (paper §2.4):
    /// the seeds plus every resource transitively reachable over properties
    /// the schema marks as strong references.
    pub fn strong_closure(&self, seeds: &[String]) -> Result<Vec<String>> {
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = seeds.to_vec();
        while let Some(uri) = stack.pop() {
            if !visited.insert(uri.clone()) {
                continue;
            }
            let Some(class) = BaseStore::resource_class(self.db(), &uri)? else {
                continue;
            };
            for (prop, value) in BaseStore::statements_of(self.db(), &uri)? {
                if self.schema.ref_kind(&class, &prop) == Some(RefKind::Strong)
                    && BaseStore::resource_exists(self.db(), &value)?
                {
                    stack.push(value);
                }
            }
        }
        Ok(visited.into_iter().collect())
    }

    /// Resources that transitively *strong-reference* `uri` (the reverse
    /// walk used to find whose cached closure an update invalidates),
    /// including `uri` itself.
    pub fn strong_referrers(&self, uri: &str) -> Result<Vec<String>> {
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = vec![uri.to_owned()];
        // collect all (class, property) pairs that are strong references
        let mut strong_props: Vec<(String, String)> = Vec::new();
        for class in self.schema.class_names() {
            if let Some(def) = self.schema.class(class) {
                for p in &def.properties {
                    if let mdv_rdf::Range::Class {
                        kind: RefKind::Strong,
                        ..
                    } = p.range
                    {
                        // instances of subclasses carry the property too
                        for sub in self.descendants_of(class) {
                            strong_props.push((sub.clone(), p.name.clone()));
                        }
                    }
                }
            }
        }
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur.clone()) {
                continue;
            }
            for (class, prop) in &strong_props {
                for referrer in BaseStore::resources_with_value(self.db(), class, prop, &cur)? {
                    stack.push(referrer);
                }
            }
        }
        Ok(visited.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_rdf::{Term, UriRef};

    pub(crate) fn paper_schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .int("serverPort")
                    .int("synthValue")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    pub(crate) fn figure1_document() -> Document {
        Document::new("doc.rdf")
            .with_resource(
                Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                    .with("serverHost", Term::literal("pirates.uni-passau.de"))
                    .with("serverPort", Term::literal("5874"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new("doc.rdf", "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                    .with("memory", Term::literal("92"))
                    .with("cpu", Term::literal("600")),
            )
    }

    fn provider_doc(i: usize, host: &str, memory: i64, cpu: i64) -> Document {
        let uri = format!("doc{i}.rdf");
        Document::new(uri.clone())
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal(host))
                    .with("serverPort", Term::literal("4000"))
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

    #[test]
    fn example1_rule_matches_figure1_document() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, initial) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        assert!(initial.is_empty());
        let pubs = e.register_document(&figure1_document()).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn figure9_trace_shape() {
        // §3.3.1 rule base: memory>64 AND cpu>500 AND contains — three
        // triggers, an identity join, a reference join. The Figure 1
        // document produces the Figure 9 iteration pattern.
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription(
            "search CycleProvider c, ServerInformation s register c \
             where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation = s \
             and s.memory > 64 and s.cpu > 500",
        )
        .unwrap();
        let (pubs, run) = e.register_batch_traced(&[figure1_document()]).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        // initial iteration: 3 trigger matches (info×2, host×1);
        // iteration 1: the identity join on info; iteration 2: the end join
        assert_eq!(run.iterations.len(), 3);
        assert_eq!(run.iterations[0].len(), 3);
        assert_eq!(run.iterations[1].len(), 1);
        assert_eq!(run.iterations[1][0].0, "doc.rdf#info");
        assert_eq!(run.iterations[2].len(), 1);
        assert_eq!(run.iterations[2][0].0, "doc.rdf#host");
        assert_eq!(run.end_matches.len(), 1);
    }

    #[test]
    fn non_matching_document_produces_nothing() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        // memory 32 < 64
        let pubs = e
            .register_document(&provider_doc(1, "x.example.org", 32, 600))
            .unwrap();
        assert!(pubs.is_empty());
    }

    #[test]
    fn oid_rule_matches_single_resource() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, _) = e
            .register_subscription("search CycleProvider c register c where c = 'doc1.rdf#host'")
            .unwrap();
        let pubs = e
            .register_batch(&[
                provider_doc(1, "a.org", 128, 600),
                provider_doc(2, "b.org", 128, 600),
            ])
            .unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["doc1.rdf#host".to_owned()]);
    }

    #[test]
    fn backfill_matches_existing_data() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_document(&provider_doc(1, "a.uni-passau.de", 128, 600))
            .unwrap();
        e.register_document(&provider_doc(2, "b.org", 128, 600))
            .unwrap();
        let (_, initial) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        assert_eq!(initial, vec!["doc1.rdf#host".to_owned()]);
    }

    #[test]
    fn shared_rules_notify_both_subscriptions() {
        let mut e = FilterEngine::new(paper_schema());
        let (s1, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        let (s2, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        assert_ne!(s1, s2);
        let pubs = e
            .register_document(&provider_doc(1, "a.org", 128, 600))
            .unwrap();
        assert_eq!(pubs.len(), 2);
        assert!(pubs
            .iter()
            .all(|p| p.added == vec!["doc1.rdf#host".to_owned()]));
    }

    #[test]
    fn or_rule_matches_union() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'alpha' or c.serverHost contains 'beta'",
            )
            .unwrap();
        let pubs = e
            .register_batch(&[
                provider_doc(1, "alpha.org", 1, 1),
                provider_doc(2, "beta.org", 1, 1),
                provider_doc(3, "gamma.org", 1, 1),
            ])
            .unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(
            pubs[0].added,
            vec!["doc1.rdf#host".to_owned(), "doc2.rdf#host".to_owned()]
        );
    }

    #[test]
    fn unregister_retracts_rules_and_stops_notifications() {
        let mut e = FilterEngine::new(paper_schema());
        let (s1, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        assert!(!e.graph().is_empty());
        e.unregister_subscription(s1).unwrap();
        assert!(e.graph().is_empty());
        assert_eq!(e.db().table("AtomicRules").unwrap().len(), 0);
        let pubs = e
            .register_document(&provider_doc(1, "a.org", 128, 600))
            .unwrap();
        assert!(pubs.is_empty());
        assert!(matches!(
            e.unregister_subscription(s1),
            Err(Error::Subscription(_))
        ));
    }

    #[test]
    fn unregister_keeps_shared_rules() {
        let mut e = FilterEngine::new(paper_schema());
        let (s1, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        let (s2, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.cpu > 500",
            )
            .unwrap();
        e.unregister_subscription(s1).unwrap();
        // s2 still works
        let pubs = e
            .register_document(&provider_doc(1, "a.org", 32, 600))
            .unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, s2);
    }

    #[test]
    fn duplicate_document_registration_rejected() {
        let mut e = FilterEngine::new(paper_schema());
        let doc = provider_doc(1, "a.org", 128, 600);
        e.register_document(&doc).unwrap();
        assert!(matches!(e.register_document(&doc), Err(Error::Document(_))));
    }

    #[test]
    fn invalid_document_rejected_atomically() {
        let mut e = FilterEngine::new(paper_schema());
        let bad = Document::new("bad.rdf")
            .with_resource(Resource::new(UriRef::new("bad.rdf", "x"), "UnknownClass"));
        assert!(e.register_document(&bad).is_err());
        assert_eq!(e.db().table("Resources").unwrap().len(), 0);
    }

    #[test]
    fn strong_closure_follows_strong_refs() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_document(&figure1_document()).unwrap();
        let closure = e.strong_closure(&["doc.rdf#host".to_owned()]).unwrap();
        assert_eq!(
            closure,
            vec!["doc.rdf#host".to_owned(), "doc.rdf#info".to_owned()]
        );
        // the reverse walk
        let referrers = e.strong_referrers("doc.rdf#info").unwrap();
        assert_eq!(
            referrers,
            vec!["doc.rdf#host".to_owned(), "doc.rdf#info".to_owned()]
        );
    }

    #[test]
    fn check_match_agrees_with_filter() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        e.register_batch(&[
            provider_doc(1, "a.uni-passau.de", 128, 600),
            provider_doc(2, "b.org", 128, 600),
            provider_doc(3, "c.uni-passau.de", 32, 600),
        ])
        .unwrap();
        let end = e.subscription(sub).unwrap().end_rules[0];
        assert!(e.check_match(end, "doc1.rdf#host").unwrap());
        assert!(
            !e.check_match(end, "doc2.rdf#host").unwrap(),
            "host does not match"
        );
        assert!(
            !e.check_match(end, "doc3.rdf#host").unwrap(),
            "memory too small"
        );
        assert!(!e.check_match(end, "doc1.rdf#info").unwrap(), "wrong class");
    }

    #[test]
    fn rule_groups_share_probes() {
        let docs: Vec<Document> = (0..20)
            .map(|i| provider_doc(i, "a.org", 100 + i as i64, 600))
            .collect();
        let rules = [
            "search CycleProvider c register c where c.serverInformation.memory > 64",
            "search CycleProvider c register c where c.serverInformation.cpu > 100",
        ];

        let mut grouped = FilterEngine::new(paper_schema());
        for r in rules {
            grouped.register_subscription(r).unwrap();
        }
        let mut ungrouped = FilterEngine::with_config(
            paper_schema(),
            FilterConfig {
                use_rule_groups: false,
                ..FilterConfig::default()
            },
        );
        for r in rules {
            ungrouped.register_subscription(r).unwrap();
        }

        let pubs_a = grouped.register_batch(&docs).unwrap();
        let pubs_b = ungrouped.register_batch(&docs).unwrap();
        // identical results ...
        assert_eq!(pubs_a, pubs_b);
        // ... but the grouped engine shared probes
        assert!(grouped.stats().probe_cache_hits > 0);
        assert_eq!(ungrouped.stats().probe_cache_hits, 0);
        assert!(grouped.stats().probes_executed < ungrouped.stats().probes_executed);
    }

    #[test]
    fn subclass_instances_match_superclass_rules() {
        let schema = RdfSchema::builder()
            .class("Provider", |c| c.str("name"))
            .class("CycleProvider", |c| c.extends("Provider").int("port"))
            .build()
            .unwrap();
        let mut e = FilterEngine::new(schema);
        let (sub, _) = e
            .register_subscription("search Provider p register p where p.name contains 'x'")
            .unwrap();
        let doc = Document::new("d.rdf").with_resource(
            Resource::new(UriRef::new("d.rdf", "cp"), "CycleProvider")
                .with("name", Term::literal("ax"))
                .with("port", Term::literal("80")),
        );
        let pubs = e.register_document(&doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["d.rdf#cp".to_owned()]);
    }

    #[test]
    fn batch_equals_sequential_registration() {
        let docs: Vec<Document> = (0..10)
            .map(|i| provider_doc(i, if i % 2 == 0 { "even.org" } else { "odd.org" }, 100, 600))
            .collect();
        let rule = "search CycleProvider c register c where c.serverHost contains 'even' \
             and c.serverInformation.memory > 64";

        let mut batch = FilterEngine::new(paper_schema());
        batch.register_subscription(rule).unwrap();
        let mut batch_added: Vec<String> = batch
            .register_batch(&docs)
            .unwrap()
            .into_iter()
            .flat_map(|p| p.added)
            .collect();
        batch_added.sort();

        let mut seq = FilterEngine::new(paper_schema());
        seq.register_subscription(rule).unwrap();
        let mut seq_added = Vec::new();
        for d in &docs {
            seq_added.extend(
                seq.register_document(d)
                    .unwrap()
                    .into_iter()
                    .flat_map(|p| p.added),
            );
        }
        seq_added.sort();
        assert_eq!(batch_added, seq_added);
        assert_eq!(batch_added.len(), 5);
    }

    #[test]
    fn unsatisfiable_rule_rejected_but_disjunct_skipped() {
        let mut e = FilterEngine::new(paper_schema());
        assert!(matches!(
            e.register_subscription("search CycleProvider c register c where 1 = 2"),
            Err(Error::Rule(mdv_rulelang::Error::Unsatisfiable))
        ));
        // one satisfiable disjunct is enough
        let (_, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverPort > 0 or c.serverPort < 0 and 1 = 2",
            )
            .unwrap();
    }

    #[test]
    fn cross_document_references_join() {
        // the CycleProvider and its ServerInformation live in two documents
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        let info = Document::new("info.rdf").with_resource(
            Resource::new(UriRef::new("info.rdf", "i"), "ServerInformation")
                .with("memory", Term::literal("128"))
                .with("cpu", Term::literal("600")),
        );
        let provider = Document::new("prov.rdf").with_resource(
            Resource::new(UriRef::new("prov.rdf", "p"), "CycleProvider")
                .with("serverHost", Term::literal("a.org"))
                .with("serverPort", Term::literal("1"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("info.rdf", "i")),
                ),
        );
        // register the referenced document first, then the referencing one
        assert!(e.register_document(&info).unwrap().is_empty());
        let pubs = e.register_document(&provider).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["prov.rdf#p".to_owned()]);

        // and in the opposite order in a fresh engine: the provider arrives
        // before its ServerInformation — the later registration of the
        // ServerInformation must trigger the join (paper §3.1)
        let mut e2 = FilterEngine::new(paper_schema());
        e2.register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        assert!(e2.register_document(&provider).unwrap().is_empty());
        let pubs = e2.register_document(&info).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["prov.rdf#p".to_owned()]);
    }
}
