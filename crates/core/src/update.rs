//! Updates and deletions (paper §3.5).
//!
//! One filter execution is not sufficient when documents change. The engine
//! runs the filter **three times**:
//!
//! 1. with the *original* version of updated and deleted resources as input
//!    (read-only pass) — its results are the *candidate* resources, each of
//!    which no longer matches at least one rule via the old data; every
//!    derivation along the way is retracted from the materializations;
//! 2. after writing the modified metadata, with the candidate resources as
//!    input — its results are the *wrong candidates*, i.e. resources that
//!    still match (re-deriving their materializations);
//! 3. with the modified metadata as input — the pass that would suffice if
//!    no updates or deletions were allowed, producing the new matches.
//!
//! True candidates (pass 1 minus pass 2) are published as removals; pass 3
//! results as additions; updated resources cached via strong references are
//! published as updates to every subscription whose matched closure
//! contains them.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use mdv_rdf::{diff, diff_delete_all, Document, DocumentDiff, RDF_SUBJECT};
use mdv_relstore::StorageEngine;

use crate::atoms::{AtomicRuleKind, RuleId};
use crate::engine::{FilterEngine, Mode};
use crate::error::{Error, Result};
use crate::registry::{assemble_publications, Publication, SubscriptionId};
use crate::store::{Atom, BaseStore};

impl<S: StorageEngine + Sync> FilterEngine<S> {
    /// Re-registers a modified version of a document (paper §2.2: "updating
    /// metadata essentially means re-registering a modified version").
    pub fn update_document(&mut self, new_doc: &Document) -> Result<Vec<Publication>> {
        self.store.begin();
        let out = self.update_document_inner(new_doc);
        self.store.commit()?;
        out
    }

    fn update_document_inner(&mut self, new_doc: &Document) -> Result<Vec<Publication>> {
        let old = self.documents.get(new_doc.uri()).cloned().ok_or_else(|| {
            Error::Document(format!(
                "document '{}' is not registered; use register_document",
                new_doc.uri()
            ))
        })?;
        new_doc.check_internal_references()?;
        self.schema().validate(new_doc).map_err(Error::Rdf)?;
        let d = diff(&old, new_doc);
        // resources added by the update must not belong to other documents
        for res in &d.added {
            if BaseStore::resource_exists(self.db(), res.uri().as_str())? {
                return Err(Error::Document(format!(
                    "resource '{}' is already registered elsewhere",
                    res.uri()
                )));
            }
        }
        self.apply_diff(&d, Some(new_doc))
    }

    /// Deletes a whole document; all contained resources are deleted
    /// (paper §3.5).
    pub fn delete_document(&mut self, uri: &str) -> Result<Vec<Publication>> {
        self.store.begin();
        let out = self.delete_document_inner(uri);
        self.store.commit()?;
        out
    }

    fn delete_document_inner(&mut self, uri: &str) -> Result<Vec<Publication>> {
        let old = self
            .documents
            .get(uri)
            .cloned()
            .ok_or_else(|| Error::Document(format!("document '{uri}' is not registered")))?;
        let d = diff_delete_all(&old);
        self.apply_diff(&d, None)
    }

    fn apply_diff(
        &mut self,
        d: &DocumentDiff,
        new_doc: Option<&Document>,
    ) -> Result<Vec<Publication>> {
        if d.is_empty() {
            // nothing changed; just refresh the stored document
            if let Some(doc) = new_doc {
                self.documents.insert(doc.uri().to_owned(), doc.clone());
            }
            return Ok(Vec::new());
        }

        // ---- pass 1: old state of changed resources (read-only) ----
        let mut pass1_atoms = Vec::new();
        for res in &d.deleted {
            pass1_atoms.extend(Atom::from_resource(res));
        }
        for (old_res, _) in &d.updated {
            pass1_atoms.extend(Atom::from_resource(old_res));
        }
        let run1 = self.run_filter(&pass1_atoms, Mode::Collect)?;
        let before: HashSet<(RuleId, String)> = run1.end_matches.iter().cloned().collect();

        // retract every derivation that involved the changed data
        let mut retracted: BTreeSet<(RuleId, String)> = BTreeSet::new();
        for iteration in &run1.iterations {
            for (uri, rule) in iteration {
                retracted.insert((*rule, uri.clone()));
            }
        }
        for (rule, uri) in &retracted {
            BaseStore::result_remove(&mut self.store, *rule, uri)?;
        }

        // ---- apply the changes to the base tables ----
        for res in &d.deleted {
            BaseStore::remove_resource(&mut self.store, res.uri().as_str())?;
        }
        for (old_res, new_res) in &d.updated {
            BaseStore::remove_resource(&mut self.store, old_res.uri().as_str())?;
            let doc_uri = new_res.uri().document_uri().to_owned();
            BaseStore::insert_resource(&mut self.store, new_res, &doc_uri)?;
        }
        for res in &d.added {
            let doc_uri = res.uri().document_uri().to_owned();
            BaseStore::insert_resource(&mut self.store, res, &doc_uri)?;
        }
        match new_doc {
            Some(doc) => {
                self.documents.insert(doc.uri().to_owned(), doc.clone());
            }
            None => {
                // document deletion: identify the document by any deleted
                // resource (diff_delete_all lists all of them)
                if let Some(res) = d.deleted.first() {
                    self.documents.remove(res.uri().document_uri());
                }
            }
        }

        // ---- pass 2: candidates against the new state ----
        // rebuilding candidate atoms only reads the base tables, so the
        // per-candidate work fans out across the pool; concatenating in
        // candidate (BTreeSet) order matches the sequential engine exactly
        let candidates: Vec<String> = retracted
            .iter()
            .map(|(_, uri)| uri.clone())
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        let atom_parts = self.par_map(&candidates, |uri| self.atoms_from_store(uri));
        let mut pass2_atoms = Vec::new();
        for part in atom_parts {
            pass2_atoms.extend(part?);
        }
        let run2 = self.run_filter(&pass2_atoms, Mode::Refresh)?;

        // ---- pass 3: the modified metadata as input ----
        let mut pass3_atoms = Vec::new();
        for res in &d.added {
            pass3_atoms.extend(Atom::from_resource(res));
        }
        for (_, new_res) in &d.updated {
            pass3_atoms.extend(Atom::from_resource(new_res));
        }
        let run3 = self.run_filter(&pass3_atoms, Mode::Insert)?;

        // everything matching under the new state, as far as the passes see:
        // pass 2 re-derives the candidates' surviving matches, pass 3 adds
        // matches arising from the modified metadata
        let survived: HashSet<(RuleId, String)> = run2
            .end_matches
            .iter()
            .chain(run3.end_matches.iter())
            .cloned()
            .collect();

        // ---- classify per subscription ----
        let mut pubs: BTreeMap<SubscriptionId, Publication> = BTreeMap::new();
        let push = |pubs: &mut BTreeMap<SubscriptionId, Publication>,
                    subs: &[SubscriptionId],
                    f: &dyn Fn(&mut Publication)| {
            for sub in subs {
                f(pubs.entry(*sub).or_insert_with(|| Publication::new(*sub)));
            }
        };

        // removals: matched before via old data, not re-derived anywhere
        for (rule, uri) in &before {
            if !survived.contains(&(*rule, uri.clone())) {
                if let Some(subs) = self.end_subs.get(rule) {
                    let subs = subs.clone();
                    let uri = uri.clone();
                    push(&mut pubs, &subs, &|p| p.removed.push(uri.clone()));
                }
            }
        }
        // additions: matches under the new state that did not exist before
        for (rule, uri) in &survived {
            if before.contains(&(*rule, uri.clone())) {
                continue;
            }
            if let Some(subs) = self.end_subs.get(rule) {
                let subs = subs.clone();
                let uri = uri.clone();
                push(&mut pubs, &subs, &|p| p.added.push(uri.clone()));
            }
        }
        // updates: an updated resource must be re-shipped to every
        // subscription whose matched resources reach it over strong
        // references (it sits in their cached closure, §2.4). Only end
        // rules a referrer can reach are verified: those re-derived this
        // round, and those its register chain leads to (see
        // `end_rules_reachable`)
        let updated_uris: Vec<String> =
            d.updated.iter().map(|(_, n)| n.uri().to_string()).collect();
        for u in &updated_uris {
            let referrers = self.strong_referrers(u)?;
            let mut reachable = Vec::with_capacity(referrers.len());
            let mut candidates: BTreeSet<RuleId> = BTreeSet::new();
            for r in &referrers {
                let ends = self.end_rules_reachable(r)?;
                candidates.extend(ends.iter().copied());
                reachable.push(ends);
            }
            let referrer_set: HashSet<&str> = referrers.iter().map(String::as_str).collect();
            candidates.extend(
                survived
                    .iter()
                    .filter(|(_, uri)| referrer_set.contains(uri.as_str()))
                    .map(|(rule, _)| *rule),
            );
            for end in candidates {
                let mut reaches = false;
                for (r, ends) in referrers.iter().zip(&reachable) {
                    if survived.contains(&(end, r.clone())) {
                        reaches = true;
                        break;
                    }
                    // not re-derived this round: consult the current state
                    if ends.contains(&end) && self.check_match(end, r)? {
                        reaches = true;
                        break;
                    }
                }
                if reaches {
                    if let Some(subs) = self.end_subs.get(&end) {
                        let subs = subs.clone();
                        let u = u.clone();
                        push(&mut pubs, &subs, &|p| p.updated.push(u.clone()));
                    }
                }
            }
        }

        Ok(assemble_publications(pubs))
    }

    /// The end rules `uri` can currently match: every end rule reached from
    /// a trigger rule `uri` matches by climbing join rules whose *register*
    /// input is the rule below. A superset of the end rules `uri` matches,
    /// because `check_match(join, uri)` requires `uri` to match the join's
    /// register input, so every match bottoms out in a trigger `uri`
    /// matches. Costs one trigger match over `uri`'s atoms plus the climb,
    /// not one check per end rule. Work counters are left untouched: the
    /// caller's `check_match` calls account for the verification.
    fn end_rules_reachable(&self, uri: &str) -> Result<BTreeSet<RuleId>> {
        let (triggers, _) = self.match_triggers(&self.atoms_from_store(uri)?)?;
        let mut stack: Vec<RuleId> = triggers.into_iter().map(|(_, rule)| rule).collect();
        let mut visited: HashSet<RuleId> = HashSet::new();
        let mut ends = BTreeSet::new();
        while let Some(rule) = stack.pop() {
            if !visited.insert(rule) {
                continue;
            }
            if self.end_subs.contains_key(&rule) {
                ends.insert(rule);
            }
            for dep in self.graph.dependents_of(rule) {
                if let Some(AtomicRuleKind::Join(spec)) = self.graph.rule(*dep).map(|r| &r.kind) {
                    if spec.register_input().rule == rule {
                        stack.push(*dep);
                    }
                }
            }
        }
        Ok(ends)
    }

    /// Rebuilds a resource's atoms from the base tables (candidate input of
    /// pass 2 and of [`FilterEngine::end_rules_reachable`]; the resource may
    /// live in any document).
    pub(crate) fn atoms_from_store(&self, uri: &str) -> Result<Vec<Atom>> {
        let Some(class) = BaseStore::resource_class(self.db(), uri)? else {
            return Ok(Vec::new()); // deleted candidates have no atoms
        };
        let mut atoms = vec![Atom {
            uri: uri.to_owned(),
            class: class.clone(),
            property: RDF_SUBJECT.to_owned(),
            value: uri.to_owned(),
        }];
        for (property, value) in BaseStore::statements_of(self.db(), uri)? {
            atoms.push(Atom {
                uri: uri.to_owned(),
                class: class.clone(),
                property,
                value,
            });
        }
        Ok(atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_rdf::{RdfSchema, Resource, Term, UriRef};

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

    fn doc(memory: i64) -> Document {
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
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal("600")),
            )
    }

    const PATH_RULE: &str =
        "search CycleProvider c register c where c.serverInformation.memory > 64";

    #[test]
    fn referenced_update_gains_match() {
        // §3.5: "if the ServerInformation resource's memory property is
        // updated from 32 to 128, CycleProvider resources can now match"
        let mut e = FilterEngine::new(schema());
        let (sub, _) = e.register_subscription(PATH_RULE).unwrap();
        assert!(e.register_document(&doc(32)).unwrap().is_empty());
        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        assert!(pubs[0].removed.is_empty());
    }

    #[test]
    fn referenced_update_loses_match() {
        // memory set from 92 to 32: the CycleProvider no longer matches
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        let pubs = e.update_document(&doc(32)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].removed, vec!["doc.rdf#host".to_owned()]);
        assert!(pubs[0].added.is_empty());
    }

    #[test]
    fn still_matching_update_ships_new_version() {
        // memory 92 → 128: still matching; the updated ServerInformation is
        // in the subscription's strong closure and must be re-shipped
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert!(pubs[0].added.is_empty());
        assert!(pubs[0].removed.is_empty());
        assert_eq!(pubs[0].updated, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn alternative_derivation_survives_update() {
        // a CycleProvider referencing two ServerInformations stays matched
        // when one of them drops below the threshold
        let schema = RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .strong_ref_set("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap();
        let make = |m1: i64, m2: i64| {
            Document::new("d.rdf")
                .with_resource(
                    Resource::new(UriRef::new("d.rdf", "host"), "CycleProvider")
                        .with("serverHost", Term::literal("h"))
                        .with(
                            "serverInformation",
                            Term::resource(UriRef::new("d.rdf", "i1")),
                        )
                        .with(
                            "serverInformation",
                            Term::resource(UriRef::new("d.rdf", "i2")),
                        ),
                )
                .with_resource(
                    Resource::new(UriRef::new("d.rdf", "i1"), "ServerInformation")
                        .with("memory", Term::literal(m1.to_string()))
                        .with("cpu", Term::literal("1")),
                )
                .with_resource(
                    Resource::new(UriRef::new("d.rdf", "i2"), "ServerInformation")
                        .with("memory", Term::literal(m2.to_string()))
                        .with("cpu", Term::literal("1")),
                )
        };
        let mut e = FilterEngine::new(schema);
        e.register_subscription(
            "search CycleProvider c register c where c.serverInformation?.memory > 64",
        )
        .unwrap();
        let pubs = e.register_document(&make(92, 128)).unwrap();
        assert_eq!(pubs[0].added, vec!["d.rdf#host".to_owned()]);
        // i1 drops to 32 but i2 still qualifies: no removal; i1 is updated
        // and still strongly referenced, so it ships as an update
        let pubs = e.update_document(&make(32, 128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert!(
            pubs[0].removed.is_empty(),
            "host still matches via i2: {pubs:?}"
        );
        assert_eq!(pubs[0].updated, vec!["d.rdf#i1".to_owned()]);
        // now both drop: removal of host
        let pubs = e.update_document(&make(32, 16)).unwrap();
        assert_eq!(pubs[0].removed, vec!["d.rdf#host".to_owned()]);
    }

    #[test]
    fn delete_document_removes_matches() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        let pubs = e.delete_document("doc.rdf").unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].removed, vec!["doc.rdf#host".to_owned()]);
        // base tables are clean; the document can be re-registered
        assert_eq!(e.db().table("Resources").unwrap().len(), 0);
        assert_eq!(e.db().table("Statements").unwrap().len(), 0);
        assert_eq!(e.db().table("RuleResults").unwrap().len(), 0);
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn update_unknown_document_rejected() {
        let mut e = FilterEngine::new(schema());
        assert!(matches!(
            e.update_document(&doc(92)),
            Err(Error::Document(_))
        ));
        assert!(matches!(
            e.delete_document("doc.rdf"),
            Err(Error::Document(_))
        ));
    }

    #[test]
    fn no_change_update_is_silent() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        assert!(e.update_document(&doc(92)).unwrap().is_empty());
    }

    #[test]
    fn update_adding_resources_publishes_them() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription("search ServerInformation s register s where s.memory > 64")
            .unwrap();
        e.register_document(&doc(92)).unwrap();
        // add a second ServerInformation to the document
        let mut new_doc = doc(92);
        new_doc
            .add_resource(
                Resource::new(UriRef::new("doc.rdf", "info2"), "ServerInformation")
                    .with("memory", Term::literal("256"))
                    .with("cpu", Term::literal("1")),
            )
            .unwrap();
        let pubs = e.update_document(&new_doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["doc.rdf#info2".to_owned()]);
    }

    #[test]
    fn update_removing_resource_publishes_removal() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription("search ServerInformation s register s where s.memory > 64")
            .unwrap();
        e.register_document(&doc(92)).unwrap();
        // drop the info resource (and the reference to it)
        let new_doc = Document::new("doc.rdf").with_resource(
            Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("pirates.uni-passau.de"))
                .with("serverPort", Term::literal("5874")),
        );
        let pubs = e.update_document(&new_doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].removed, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn oid_subscription_sees_update_lifecycle() {
        let mut e = FilterEngine::new(schema());
        let (_sub, _) = e
            .register_subscription("search CycleProvider c register c where c = 'doc.rdf#host'")
            .unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        // host itself updated (port change): still matches OID → update
        let mut new_doc = Document::new("doc.rdf").with_resource(
            Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("pirates.uni-passau.de"))
                .with("serverPort", Term::literal("9999"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("doc.rdf", "info")),
                ),
        );
        new_doc
            .add_resource(
                Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                    .with("memory", Term::literal("92"))
                    .with("cpu", Term::literal("600")),
            )
            .unwrap();
        let pubs = e.update_document(&new_doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].updated, vec!["doc.rdf#host".to_owned()]);
        // deletion removes it
        let pubs = e.delete_document("doc.rdf").unwrap();
        assert_eq!(pubs[0].removed, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn materializations_stay_consistent_after_updates() {
        // after a lose-then-gain cycle the engine's incremental state must
        // equal a from-scratch registration
        let mut e = FilterEngine::new(schema());
        e.register_subscription(PATH_RULE).unwrap();
        e.register_document(&doc(92)).unwrap();
        e.update_document(&doc(32)).unwrap();
        e.update_document(&doc(128)).unwrap();

        let mut fresh = FilterEngine::new(schema());
        fresh.register_subscription(PATH_RULE).unwrap();
        fresh.register_document(&doc(128)).unwrap();

        let mut a: Vec<_> = e
            .db()
            .table("RuleResults")
            .unwrap()
            .iter()
            .map(|(_, row)| format!("{row:?}"))
            .collect();
        let mut b: Vec<_> = fresh
            .db()
            .table("RuleResults")
            .unwrap()
            .iter()
            .map(|(_, row)| format!("{row:?}"))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// Rules on `CycleProvider` alone: an update to the strongly referenced
    /// ServerInformation matches no trigger, so no filter pass re-derives
    /// the subscription's match and only the re-ship step can find it.
    fn updated_info_subscribers(rule: &str) -> (FilterEngine, SubscriptionId) {
        let mut e = FilterEngine::new(schema());
        let (sub, _) = e.register_subscription(rule).unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs.len(), 1, "{rule} matches the provider: {pubs:?}");
        (e, sub)
    }

    #[test]
    fn update_reaches_end_rule_through_depth_two_register_chain() {
        let (mut e, sub) = updated_info_subscribers(
            "search CycleProvider c register c where c.serverHost contains 'pirates' \
             and c.serverHost contains 'passau' and c.serverPort > 1000",
        );
        // the end rule registers through a join that registers through a
        // trigger: two join levels between the trigger and the end rule
        let end = e.subscription(sub).unwrap().end_rules[0];
        let register_input = |e: &FilterEngine, id: RuleId| match &e.graph().rule(id).unwrap().kind
        {
            AtomicRuleKind::Join(spec) => Some(spec.register_input().rule),
            AtomicRuleKind::Trigger { .. } => None,
        };
        let mid = register_input(&e, end).expect("end rule is a join");
        let bottom = register_input(&e, mid).expect("its register input is a join");
        assert!(
            register_input(&e, bottom).is_none(),
            "chain ends in a trigger"
        );

        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert!(pubs[0].added.is_empty() && pubs[0].removed.is_empty());
        assert_eq!(pubs[0].updated, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn update_reaches_subclass_instance_under_superclass_rules() {
        let schema = RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("Provider", |c| {
                c.str("serverHost")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .class("CycleProvider", |c| c.extends("Provider").int("serverPort"))
            .build()
            .unwrap();
        let mut e = FilterEngine::new(schema);
        let (by_oid, _) = e
            .register_subscription("search Provider p register p where p = 'doc.rdf#host'")
            .unwrap();
        let (by_class, _) = e
            .register_subscription("search Provider p register p")
            .unwrap();
        let pubs = e.register_document(&doc(92)).unwrap();
        assert_eq!(pubs.len(), 2);
        let pubs = e.update_document(&doc(128)).unwrap();
        let subs: Vec<SubscriptionId> = pubs.iter().map(|p| p.subscription).collect();
        assert_eq!(subs, vec![by_oid, by_class]);
        for p in &pubs {
            assert_eq!(p.updated, vec!["doc.rdf#info".to_owned()]);
        }
    }

    #[test]
    fn update_reaches_second_end_rule_of_or_subscription() {
        let (mut e, sub) = updated_info_subscribers(
            "search CycleProvider c register c \
             where c.serverHost contains 'nomatch' or c.serverPort > 1000",
        );
        assert_eq!(e.subscription(sub).unwrap().end_rules.len(), 2);
        let pubs = e.update_document(&doc(128)).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].updated, vec!["doc.rdf#info".to_owned()]);
    }

    #[test]
    fn update_with_unmatched_referrers_publishes_nothing() {
        let mut e = FilterEngine::new(schema());
        e.register_subscription("search CycleProvider c register c where c.serverPort > 9000")
            .unwrap();
        assert!(e.register_document(&doc(92)).unwrap().is_empty());
        assert!(e.update_document(&doc(128)).unwrap().is_empty());
    }

    /// Rule and value vocabularies for the trigger-agreement property:
    /// every trigger operator, numeric edge literals on both sides, and
    /// (stored without validation) non-numeric text under numeric rules.
    const NUMBERS: &[&str] = &["0", "-0", "-0.0", "1", "1.0", "0.5", "-1", "2"];
    const DOC_NUMBERS: &[&str] = &[
        "0", "-0", "0.0", "-0.0", "1", "1.0", "1e0", " 1 ", "0.5", "-1", "2", "NaN", "nan", "inf",
        "-inf", "abc", "",
    ];
    const TEXTS: &[&str] = &[
        "a.b",
        "xa.b-c-d",
        "v1",
        "b",
        "",
        "-c-",
        "a.b.c",
        "\u{e9}t\u{e9}",
    ];
    const PATTERNS: &[&str] = &[".b", "a.b", "b", "-c-", "b-c", "v1", "\u{e9}t"];

    fn agreement_rule(src: &mut mdv_testkit::Source) -> String {
        let class = *src.choose(&["Item", "Special"]);
        let op = *src.choose(&["=", "!=", "<", "<=", ">", ">="]);
        let num = *src.choose(NUMBERS);
        let pred = match src.usize_in(0..9) {
            0 => format!("x = 'd.rdf#r{}'", src.usize_in(0..6)),
            1 => format!("x != 'd.rdf#r{}'", src.usize_in(0..6)),
            2 => return format!("search {class} x register x"),
            3 => format!(
                "x.name {} '{}'",
                src.choose(&["=", "!="]),
                src.choose(TEXTS)
            ),
            4 => format!("x.name contains '{}'", src.choose(PATTERNS)),
            5 => format!("x.size {op} {num}"),
            6 => format!("x.load {op} {num}"),
            7 => format!("x.tags? contains '{}'", src.choose(PATTERNS)),
            _ => format!("x.ports? {op} {num}"),
        };
        format!("search {class} x register x where {pred}")
    }

    fn agreement_resource(src: &mut mdv_testkit::Source, i: usize) -> Resource {
        let class = *src.choose(&["Item", "Special"]);
        let mut res = Resource::new(UriRef::new("d.rdf", &format!("r{i}")), class);
        for (prop, pool, max) in [
            ("name", TEXTS, 3),
            ("size", DOC_NUMBERS, 2),
            ("load", DOC_NUMBERS, 2),
            ("tags", TEXTS, 4),
            ("ports", DOC_NUMBERS, 4),
        ] {
            for _ in 0..src.usize_in(0..max) {
                res = res.with(prop, Term::literal(*src.choose(pool)));
            }
        }
        res
    }

    mdv_testkit::property! {
        /// The premise of the re-ship step's candidate set: for every
        /// trigger rule `t` and resource `r`, `check_match(t, r)` holds iff
        /// `match_triggers(atoms_from_store(r))` yields `t` — on the
        /// indexed route and on the scan. Resources go straight into the
        /// base tables, so values a schema would reject (`NaN`, text under
        /// a numeric rule, repeated single-valued properties) are covered.
        fn trigger_matching_agrees_with_check_match(src) {
            let schema = RdfSchema::builder()
                .class("Item", |c| {
                    c.str("name").int("size").float("load").str_set("tags").int_set("ports")
                })
                .class("Special", |c| c.extends("Item").str("label"))
                .build()
                .unwrap();
            let mut e = FilterEngine::new(schema);
            for _ in 0..src.usize_in(1..16) {
                let rule = agreement_rule(src);
                e.register_subscription(&rule)
                    .unwrap_or_else(|err| panic!("{rule}: {err}"));
            }
            let uris: Vec<String> = (0..src.usize_in(1..8))
                .map(|i| {
                    let res = agreement_resource(src, i);
                    BaseStore::insert_resource(&mut e.store, &res, "d.rdf").unwrap();
                    res.uri().to_string()
                })
                .collect();
            let triggers: Vec<RuleId> = e
                .graph()
                .rules_sorted()
                .into_iter()
                .filter(|r| matches!(r.kind, AtomicRuleKind::Trigger { .. }))
                .map(|r| r.id)
                .collect();
            for indexed in [true, false] {
                e.set_matching(indexed);
                for uri in &uris {
                    let (hits, _) = e.match_triggers(&e.atoms_from_store(uri).unwrap()).unwrap();
                    let hits: BTreeSet<RuleId> = hits.into_iter().map(|(_, t)| t).collect();
                    for &t in &triggers {
                        let text = crate::atoms::AtomicRule::canonical_text(
                            &e.graph().rule(t).unwrap().kind,
                        );
                        mdv_testkit::prop_assert_eq!(
                            e.check_match(t, uri).unwrap(),
                            hits.contains(&t),
                            "rule {} on {} ({:?}), indexed={}",
                            text, uri, e.resource(uri).unwrap(), indexed
                        );
                    }
                }
            }
        }
    }
}
