//! The three seeded workloads: topology, rule base, initial corpus and the
//! operation stream of the timed phase. Everything here is a pure function
//! of the seed; the deployment only ever sees the generated inputs.

use std::collections::{BTreeMap, HashMap};

use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};
use mdv_relstore::{Database, DurableEngine, StorageEngine};
use mdv_runtime::rng::Prng;
use mdv_system::{MdvSystem, NetConfig, Result};
use mdv_workload::rules::{benchmark_rule, RuleType};

use crate::memdisk::MemDisk;

/// Which benchmark workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PublishPathJoin,
    DurableChurn,
    SubscribeChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::PublishPathJoin,
        Kind::DurableChurn,
        Kind::SubscribeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PublishPathJoin => "publish_path_join",
            Kind::DurableChurn => "durable_churn",
            Kind::SubscribeChurn => "subscribe_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn durable(self) -> bool {
        self == Kind::DurableChurn
    }
}

/// Input sizes. `full` is what the benchmark measures; `smoke` runs every
/// code path in a second or two for the package's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// PATH rules and JOIN rules each (publish_path_join).
    pub path_join_rules: u64,
    /// Document URI pool of the churn workloads; half of it is live.
    pub pool: u64,
    /// OID rules (durable_churn).
    pub oid_rules: u64,
    /// Standing subscriptions loaded by set-up (subscribe_churn).
    pub standing_rules: u64,
    /// Operations whose work counters are printed for exact comparison.
    pub counter_window: usize,
    /// Registrations the timed phase must reach so that the publish p95
    /// keeps ten samples beyond it.
    pub min_registers: usize,
    /// Updates the timed phase must reach for a stable update median.
    pub min_updates: usize,
    /// How often set-up is repeated to report its median.
    pub setup_repeats: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            path_join_rules: 5_000,
            pool: 2_000,
            oid_rules: 2_000,
            standing_rules: 300,
            counter_window: 100,
            min_registers: 200,
            min_updates: 20,
            setup_repeats: 9,
        }
    }

    pub fn smoke() -> Size {
        Size {
            path_join_rules: 50,
            pool: 80,
            oid_rules: 80,
            standing_rules: 16,
            counter_window: 20,
            min_registers: 5,
            min_updates: 2,
            setup_repeats: 2,
        }
    }
}

/// The operation types of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    Register,
    Update,
    Delete,
    Query,
    Subscribe,
    Unsubscribe,
}

impl OpKind {
    pub const ALL: [OpKind; 6] = [
        OpKind::Register,
        OpKind::Update,
        OpKind::Delete,
        OpKind::Query,
        OpKind::Subscribe,
        OpKind::Unsubscribe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Register => "register",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
            OpKind::Query => "query",
            OpKind::Subscribe => "subscribe",
            OpKind::Unsubscribe => "unsubscribe",
        }
    }
}

/// One client request of the timed phase.
#[derive(Debug, Clone)]
pub enum Op {
    Register {
        entry: String,
        doc: Document,
    },
    Update {
        entry: String,
        doc: Document,
    },
    Delete {
        entry: String,
        uri: String,
    },
    Query {
        lmr: String,
        text: String,
    },
    Subscribe {
        lmr: String,
        text: String,
    },
    /// Retracts the standing subscription at this index of [`Model::subs`],
    /// then garbage-collects that LMR.
    Unsubscribe {
        slot: usize,
    },
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Register { .. } => OpKind::Register,
            Op::Update { .. } => OpKind::Update,
            Op::Delete { .. } => OpKind::Delete,
            Op::Query { .. } => OpKind::Query,
            Op::Subscribe { .. } => OpKind::Subscribe,
            Op::Unsubscribe { .. } => OpKind::Unsubscribe,
        }
    }
}

/// A subscription the client holds at an LMR.
#[derive(Debug, Clone)]
pub struct Sub {
    pub lmr: String,
    pub id: u64,
    pub text: String,
}

/// Everything set-up loads, in load order: the rules first, then the
/// documents (so the documents reach the caches by publication).
pub struct Plan {
    pub mdps: Vec<String>,
    /// (LMR, home MDP).
    pub lmrs: Vec<(String, String)>,
    pub placement_factor: Option<usize>,
    pub rules: Vec<(String, String)>,
    pub docs: Vec<Document>,
}

/// The client's view of the deployment's state: the live corpus and the
/// standing subscriptions. The oracle checks the caches against it.
#[derive(Default)]
pub struct Model {
    pub docs: BTreeMap<String, Document>,
    pub subs: Vec<Sub>,
    live: IdSet,
    free: IdSet,
}

impl Model {
    pub fn apply(&mut self, op: &Op, subscribed: Option<u64>) {
        match op {
            Op::Register { doc, .. } | Op::Update { doc, .. } => {
                let k = doc_index(doc.uri());
                self.free.remove(k);
                self.live.insert(k);
                self.docs.insert(doc.uri().to_owned(), doc.clone());
            }
            Op::Delete { uri, .. } => {
                let k = doc_index(uri);
                self.live.remove(k);
                self.free.insert(k);
                self.docs.remove(uri);
            }
            Op::Query { .. } => {}
            Op::Subscribe { lmr, text } => {
                if let Some(id) = subscribed {
                    self.subs.push(Sub {
                        lmr: lmr.clone(),
                        id,
                        text: text.clone(),
                    });
                }
            }
            Op::Unsubscribe { slot } => {
                self.subs.swap_remove(*slot);
            }
        }
    }
}

/// A set of document indices with O(1) insert, remove and uniform choice.
/// Its order depends only on the operation history, so choices replay.
#[derive(Default)]
struct IdSet {
    items: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl IdSet {
    fn insert(&mut self, k: u64) {
        if !self.pos.contains_key(&k) {
            self.pos.insert(k, self.items.len());
            self.items.push(k);
        }
    }

    fn remove(&mut self, k: u64) {
        if let Some(i) = self.pos.remove(&k) {
            self.items.swap_remove(i);
            if let Some(&moved) = self.items.get(i) {
                self.pos.insert(moved, i);
            }
        }
    }

    fn choose(&self, rng: &mut Prng) -> Option<u64> {
        rng.choose(&self.items).copied()
    }
}

fn doc_uri(k: u64) -> String {
    format!("d{k}.rdf")
}

fn doc_index(uri: &str) -> u64 {
    uri.trim_start_matches('d')
        .trim_end_matches(".rdf")
        .parse()
        .expect("benchmark document URIs are d<k>.rdf")
}

/// A Figure-1 shaped document: a CycleProvider strongly referencing its
/// ServerInformation.
fn document(k: u64, host: &str, memory: u64, cpu: u64, synth: u64) -> Document {
    let uri = doc_uri(k);
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal((5000 + k % 1000).to_string()))
                .with("synthValue", Term::literal(synth.to_string()))
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

const MEMORY_RANGE: u64 = 10_000;
const SYNTH_RANGE: u64 = 10_000;
const HOST_DOMAINS: [&str; 8] = [
    "alpha", "bravo", "delta", "kilo", "lima", "oscar", "sierra", "tango",
];
const HOST_TOKENS_PER_DOMAIN: u64 = 12;

/// The operation stream of one run.
pub struct Workload {
    pub kind: Kind,
    pub size: Size,
    rng: Prng,
    block: Vec<OpKind>,
    next_fresh: u64,
    rules_made: u64,
}

impl Workload {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Workload {
        Workload {
            kind,
            size,
            rng: Prng::seed_from_u64(seed ^ 0x6d64_7662_656e_6368),
            block: Vec::new(),
            next_fresh: 0,
            rules_made: 0,
        }
    }

    /// Exact operation shares, as counts per block of twenty; each block is
    /// shuffled, so the mix holds exactly at every block boundary.
    fn mix(&self) -> &'static [(OpKind, usize)] {
        match self.kind {
            Kind::PublishPathJoin => &[
                (OpKind::Register, 17),
                (OpKind::Update, 2),
                (OpKind::Query, 1),
            ],
            // registrations and deletions balance, so the live corpus (and
            // with it the cost of a query) stays level however fast the
            // deployment runs
            Kind::DurableChurn => &[
                (OpKind::Register, 5),
                (OpKind::Update, 6),
                (OpKind::Delete, 5),
                (OpKind::Query, 4),
            ],
            Kind::SubscribeChurn => &[
                (OpKind::Subscribe, 4),
                (OpKind::Unsubscribe, 4),
                (OpKind::Query, 3),
                (OpKind::Register, 4),
                (OpKind::Delete, 4),
                (OpKind::Update, 1),
            ],
        }
    }

    fn topology(&self) -> (Vec<String>, Vec<(String, String)>, Option<usize>) {
        let mdps = |n: usize| (0..n).map(|i| format!("mdp{i}")).collect::<Vec<_>>();
        match self.kind {
            Kind::PublishPathJoin | Kind::DurableChurn => {
                let m = mdps(2);
                let lmrs = (0..4)
                    .map(|i| (format!("lmr{i}"), m[i / 2].clone()))
                    .collect();
                (m, lmrs, None)
            }
            Kind::SubscribeChurn => {
                let m = mdps(3);
                let lmrs = (0..4)
                    .map(|i| (format!("lmr{i}"), m[i % 3].clone()))
                    .collect();
                (m, lmrs, Some(2))
            }
        }
    }

    /// The set-up inputs, and the model of the state they leave behind
    /// (its subscription ids are filled in by [`build`]).
    pub fn plan(&mut self) -> (Plan, Model) {
        let (mdps, lmrs, placement_factor) = self.topology();
        let mut model = Model::default();
        let mut rules = Vec::new();
        let mut docs = Vec::new();
        let lmr_names: Vec<String> = lmrs.iter().map(|(l, _)| l.clone()).collect();
        match self.kind {
            Kind::PublishPathJoin => {
                for i in 0..self.size.path_join_rules {
                    for ty in [RuleType::Path, RuleType::Join] {
                        let lmr = self.rng.choose(&lmr_names).expect("LMRs exist").clone();
                        rules.push((lmr, benchmark_rule(ty, i)));
                    }
                }
            }
            Kind::DurableChurn => {
                for k in 0..self.size.oid_rules.min(self.size.pool) {
                    let lmr = self.rng.choose(&lmr_names).expect("LMRs exist").clone();
                    rules.push((
                        lmr,
                        format!("search CycleProvider c register c where c = 'd{k}.rdf#host'"),
                    ));
                }
            }
            Kind::SubscribeChurn => {
                for _ in 0..self.size.standing_rules {
                    let lmr = self.rng.choose(&lmr_names).expect("LMRs exist").clone();
                    let text = self.churn_rule();
                    rules.push((lmr, text));
                }
            }
        }
        if self.kind != Kind::PublishPathJoin {
            let mut order: Vec<u64> = (0..self.size.pool).collect();
            self.rng.shuffle(&mut order);
            let (live, free) = order.split_at(order.len() / 2);
            for &k in live {
                let doc = self.fresh_document(k);
                model.live.insert(k);
                model.docs.insert(doc.uri().to_owned(), doc.clone());
                docs.push(doc);
            }
            for &k in free {
                model.free.insert(k);
            }
        }
        let plan = Plan {
            mdps,
            lmrs,
            placement_factor,
            rules,
            docs,
        };
        (plan, model)
    }

    /// A subscription of the subscribe_churn mix: numeric `=`, a narrow
    /// range, a high `>` threshold or a host-token `contains`, so the
    /// equality partitions, the threshold chains and the inverted
    /// `contains` index all take part. The families take turns, so every
    /// seed loads the same mix.
    fn churn_rule(&mut self) -> String {
        let base = "search CycleProvider c register c where";
        self.rules_made += 1;
        match self.rules_made % 4 {
            0 => format!(
                "{base} c.serverInformation.memory = {}",
                self.rng.below(MEMORY_RANGE)
            ),
            1 => {
                let lo = self.rng.below(MEMORY_RANGE - 100);
                format!(
                    "{base} c.serverInformation.memory >= {lo} and c.serverInformation.memory < {}",
                    lo + 100
                )
            }
            2 => format!(
                "{base} c.synthValue > {}",
                SYNTH_RANGE - 100 - self.rng.below(50)
            ),
            _ => format!("{base} c.serverHost contains '{}.'", self.host_token()),
        }
    }

    fn host_token(&mut self) -> String {
        let domain = self.rng.choose(&HOST_DOMAINS).expect("domains exist");
        format!("{domain}{}", self.rng.below(HOST_TOKENS_PER_DOMAIN))
    }

    /// Document `k` with fresh seeded content.
    fn fresh_document(&mut self, k: u64) -> Document {
        match self.kind {
            // matches exactly one PATH rule and one JOIN rule
            Kind::PublishPathJoin => document(
                k,
                &format!("host{k}.uni-passau.de"),
                self.rng.below(self.size.path_join_rules),
                600,
                0,
            ),
            _ => {
                let host = format!("h{k}.{}.example.org", self.host_token());
                let memory = self.rng.below(MEMORY_RANGE);
                let cpu = 300 * (1 + self.rng.below(3));
                let synth = self.rng.below(SYNTH_RANGE);
                document(k, &host, memory, cpu, synth)
            }
        }
    }

    /// The same document with a new memory value (a property change that
    /// moves it between PATH/JOIN rules, ranges and `=` rules).
    fn updated_document(&mut self, old: &Document) -> Document {
        let k = doc_index(old.uri());
        let cp = &old.resources()[0];
        let text = |p: &str| cp.property(p).and_then(|t| t.as_literal()).unwrap_or("0");
        let host = text("serverHost").to_owned();
        let synth: u64 = text("synthValue").parse().unwrap_or(0);
        let memory = match self.kind {
            Kind::PublishPathJoin => self.rng.below(self.size.path_join_rules),
            _ => self.rng.below(MEMORY_RANGE),
        };
        let cpu = match self.kind {
            Kind::PublishPathJoin => 600,
            _ => 300 * (1 + self.rng.below(3)),
        };
        document(k, &host, memory, cpu, synth)
    }

    fn next_kind(&mut self) -> OpKind {
        if self.block.is_empty() {
            for &(kind, n) in self.mix() {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("block refilled above")
    }

    /// The next operation, chosen from the model's current state.
    pub fn next_op(&mut self, model: &Model, plan: &Plan) -> Op {
        let entry = plan.mdps[self.rng.below(plan.mdps.len() as u64) as usize].clone();
        let lmr = plan.lmrs[self.rng.below(plan.lmrs.len() as u64) as usize]
            .0
            .clone();
        let kind = self.next_kind();
        // an operation with nothing to act on (an update before the first
        // registration, say) becomes a whole-cache query
        let fallback = || Op::Query {
            lmr: lmr.clone(),
            text: "search CycleProvider c register c".into(),
        };
        match kind {
            OpKind::Register => {
                let k = if self.kind == Kind::PublishPathJoin {
                    self.next_fresh += 1;
                    self.next_fresh - 1
                } else {
                    match model.free.choose(&mut self.rng) {
                        Some(k) => k,
                        None => return fallback(),
                    }
                };
                let doc = self.fresh_document(k);
                Op::Register { entry, doc }
            }
            OpKind::Update => match model.live.choose(&mut self.rng) {
                Some(k) => {
                    let doc = self.updated_document(&model.docs[&doc_uri(k)]);
                    Op::Update { entry, doc }
                }
                None => fallback(),
            },
            OpKind::Delete => match model.live.choose(&mut self.rng) {
                Some(k) => Op::Delete {
                    entry,
                    uri: doc_uri(k),
                },
                None => fallback(),
            },
            OpKind::Query => {
                let width = MEMORY_RANGE / 10;
                let lo = self.rng.below(MEMORY_RANGE - width);
                Op::Query {
                    lmr,
                    text: format!(
                        "search CycleProvider c register c where \
                         c.serverInformation.memory >= {lo} and \
                         c.serverInformation.memory < {}",
                        lo + width
                    ),
                }
            }
            OpKind::Subscribe => {
                let text = self.churn_rule();
                Op::Subscribe { lmr, text }
            }
            OpKind::Unsubscribe => {
                if model.subs.is_empty() {
                    return fallback();
                }
                Op::Unsubscribe {
                    slot: self.rng.below(model.subs.len() as u64) as usize,
                }
            }
        }
    }
}

/// The storage backends a deployment can run on.
pub trait Backend: StorageEngine + Send + Sync + Sized + 'static {
    fn deployment(schema: RdfSchema) -> MdvSystem<Self>;
    fn add_mdp(sys: &mut MdvSystem<Self>, name: &str) -> Result<()>;
    fn add_lmr(sys: &mut MdvSystem<Self>, name: &str, mdp: &str) -> Result<()>;
    /// (snapshot epoch, WAL bytes over all epochs, commit groups), all
    /// cumulative since the store was created.
    fn wal_counters(store: &Self) -> (u64, u64, u64);
    /// Forces a checkpoint of every node; `Ok(false)` where there is no
    /// log to checkpoint.
    fn checkpoint_all(sys: &mut MdvSystem<Self>) -> Result<bool>;
}

impl Backend for Database {
    fn deployment(schema: RdfSchema) -> MdvSystem<Self> {
        MdvSystem::new(schema)
    }

    fn add_mdp(sys: &mut MdvSystem<Self>, name: &str) -> Result<()> {
        sys.add_mdp(name)
    }

    fn add_lmr(sys: &mut MdvSystem<Self>, name: &str, mdp: &str) -> Result<()> {
        sys.add_lmr(name, mdp)
    }

    fn wal_counters(_store: &Self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    fn checkpoint_all(_sys: &mut MdvSystem<Self>) -> Result<bool> {
        Ok(false)
    }
}

/// Durable nodes, each on its own in-memory disk (see [`MemDisk`]), so
/// runs do not measure the noise of whatever disk holds the checkout.
impl Backend for DurableEngine<MemDisk> {
    fn deployment(schema: RdfSchema) -> MdvSystem<Self> {
        MdvSystem::durable_on(schema, NetConfig::default())
    }

    fn add_mdp(sys: &mut MdvSystem<Self>, name: &str) -> Result<()> {
        sys.add_mdp_durable_on(name, name, MemDisk::default())
    }

    fn add_lmr(sys: &mut MdvSystem<Self>, name: &str, mdp: &str) -> Result<()> {
        sys.add_lmr_durable_on(name, mdp, name, MemDisk::default())
    }

    fn wal_counters(store: &Self) -> (u64, u64, u64) {
        (
            store.epoch(),
            store.vfs().wal_bytes(store.dir()),
            store.commits(),
        )
    }

    fn checkpoint_all(sys: &mut MdvSystem<Self>) -> Result<bool> {
        let mdps: Vec<String> = sys.mdp_names().iter().map(|s| s.to_string()).collect();
        let lmrs: Vec<String> = sys.lmr_names().iter().map(|s| s.to_string()).collect();
        for m in &mdps {
            sys.compact_mdp(m)?;
        }
        for l in &lmrs {
            sys.compact_lmr(l)?;
        }
        Ok(true)
    }
}

/// Rules or documents loaded between two calls of `build`'s `lap`.
const SETUP_LAP: usize = 100;

/// Builds the deployment and loads the plan: topology, rules, corpus.
/// Returns the ids the LMRs gave the set-up subscriptions, in plan order.
/// Calls `lap` after every `SETUP_LAP` rules and every `SETUP_LAP`
/// documents.
pub fn build<S: Backend>(
    schema: &RdfSchema,
    plan: &Plan,
    lap: &mut dyn FnMut(),
) -> Result<(MdvSystem<S>, Vec<u64>)> {
    let mut sys = S::deployment(schema.clone());
    for m in &plan.mdps {
        S::add_mdp(&mut sys, m)?;
    }
    for (l, m) in &plan.lmrs {
        S::add_lmr(&mut sys, l, m)?;
    }
    if let Some(factor) = plan.placement_factor {
        sys.set_replication_factor(factor)?;
    }
    let mut ids = Vec::with_capacity(plan.rules.len());
    for (i, (lmr, text)) in plan.rules.iter().enumerate() {
        ids.push(sys.subscribe(lmr, text)?);
        if (i + 1) % SETUP_LAP == 0 {
            lap();
        }
    }
    for (i, doc) in plan.docs.iter().enumerate() {
        sys.register_document(&plan.mdps[i % plan.mdps.len()], doc)?;
        if (i + 1) % SETUP_LAP == 0 {
            lap();
        }
    }
    Ok((sys, ids))
}
