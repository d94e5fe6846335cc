//! The instance population: objects, attribute slots and association links.
//!
//! [`ObjectStore`] is deliberately free-standing (no scheduler, no queues)
//! so that every execution platform in the workspace can embed one: the
//! abstract interpreter holds the whole domain's population, while the
//! generated hardware and software partitions each hold the population of
//! *their* classes only.

use xtuml_core::error::{CoreError, Result};
use xtuml_core::ids::{AssocId, AttrId, ClassId, EventId, InstId, StateId};
use xtuml_core::model::{Domain, Multiplicity};
use xtuml_core::value::Value;

/// One live (or deleted) object instance.
#[derive(Debug, Clone)]
struct Instance {
    class: ClassId,
    attrs: Vec<Value>,
    state: StateId,
    alive: bool,
    /// True for a placeholder standing in for an instance owned by the
    /// other partition: navigable and addressable, but with no attribute
    /// slots, not selectable, not deletable through actions.
    proxy: bool,
}

/// Objects, attributes and links for some subset of a domain's classes.
///
/// Instance ids are dense and never reused; deleted instances leave a
/// tombstone so dangling references are detected, not misinterpreted.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    instances: Vec<Instance>,
    /// Links per association, in creation order.
    links: Vec<Vec<(InstId, InstId)>>,
}

impl ObjectStore {
    /// Creates an empty store for a domain with `assoc_count` associations.
    pub fn new(assoc_count: usize) -> ObjectStore {
        ObjectStore {
            instances: Vec::new(),
            links: vec![Vec::new(); assoc_count],
        }
    }

    /// Creates an instance of `class` with default attribute values, in
    /// the class's initial state (or state 0 for passive classes).
    pub fn create(&mut self, domain: &Domain, class: ClassId) -> InstId {
        let c = domain.class(class);
        let attrs = c.attributes.iter().map(|a| a.default.clone()).collect();
        let state = c
            .state_machine
            .as_ref()
            .map(|m| m.initial)
            .unwrap_or_default();
        self.instances.push(Instance {
            class,
            attrs,
            state,
            alive: true,
            proxy: false,
        });
        InstId::new(self.instances.len() as u32 - 1)
    }

    /// Creates an instance of `class` at exactly id `want`, padding the
    /// id space with dead tombstones if `want` lies beyond the current
    /// end. The sharded executor uses this to keep creation shard-local:
    /// shard `k` of `n` allocates ids congruent to `k (mod n)`, so the
    /// creating shard owns every instance it creates and the id spaces
    /// of concurrent shards never collide. Accessing a padding id fails
    /// like any dangling reference ("instance has been deleted") — a
    /// deterministic error, never an aliased slot.
    ///
    /// # Panics
    ///
    /// Panics if `want` is already populated (allocation must move
    /// forward).
    pub fn create_with_id(&mut self, domain: &Domain, class: ClassId, want: InstId) -> InstId {
        assert!(
            want.index() >= self.instances.len(),
            "create_with_id must allocate past the end"
        );
        while self.instances.len() < want.index() {
            self.instances.push(Instance {
                class,
                attrs: Vec::new(),
                state: StateId::default(),
                alive: false,
                proxy: false,
            });
        }
        let inst = self.create(domain, class);
        debug_assert_eq!(inst, want);
        inst
    }

    /// The size of the id space: live instances, tombstones and proxies.
    pub fn id_space(&self) -> usize {
        self.instances.len()
    }

    /// Registers an instance that lives in *another* partition's store
    /// under the same id, so cross-partition references resolve classes
    /// without owning attributes. The proxy has no attribute slots.
    pub fn create_proxy(&mut self, class: ClassId) -> InstId {
        self.instances.push(Instance {
            class,
            attrs: Vec::new(),
            state: StateId::default(),
            alive: true,
            proxy: true,
        });
        InstId::new(self.instances.len() as u32 - 1)
    }

    /// True if the instance is a cross-partition proxy.
    pub fn is_proxy(&self, inst: InstId) -> bool {
        self.instances.get(inst.index()).is_some_and(|i| i.proxy)
    }

    #[inline]
    fn get(&self, inst: InstId) -> Result<&Instance> {
        match self.instances.get(inst.index()) {
            Some(i) if i.alive => Ok(i),
            Some(_) => Err(CoreError::runtime(format!(
                "instance {inst} has been deleted"
            ))),
            None => Err(CoreError::runtime(format!("unknown instance {inst}"))),
        }
    }

    #[inline]
    fn get_mut(&mut self, inst: InstId) -> Result<&mut Instance> {
        match self.instances.get_mut(inst.index()) {
            Some(i) if i.alive => Ok(i),
            Some(_) => Err(CoreError::runtime(format!(
                "instance {inst} has been deleted"
            ))),
            None => Err(CoreError::runtime(format!("unknown instance {inst}"))),
        }
    }

    /// Deletes an instance and all links touching it.
    ///
    /// # Errors
    ///
    /// Fails on unknown or already-deleted instances.
    pub fn delete(&mut self, inst: InstId) -> Result<()> {
        self.get_mut(inst)?.alive = false;
        for links in &mut self.links {
            links.retain(|(a, b)| *a != inst && *b != inst);
        }
        Ok(())
    }

    /// True if the instance exists and is alive.
    pub fn is_alive(&self, inst: InstId) -> bool {
        self.instances.get(inst.index()).is_some_and(|i| i.alive)
    }

    /// The class of a live instance.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    #[inline]
    pub fn class_of(&self, inst: InstId) -> Result<ClassId> {
        Ok(self.get(inst)?.class)
    }

    /// Current state of a live instance's state machine.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    #[inline]
    pub fn state_of(&self, inst: InstId) -> Result<StateId> {
        Ok(self.get(inst)?.state)
    }

    /// `(class, state)` of a live instance in a single slot lookup — the
    /// dispatcher's first touch on every signal, where a second `get`
    /// would be pure overhead.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    #[inline]
    pub fn class_state(&self, inst: InstId) -> Result<(ClassId, StateId)> {
        let i = self.get(inst)?;
        Ok((i.class, i.state))
    }

    /// Moves the instance to a new state.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    pub fn set_state(&mut self, inst: InstId, state: StateId) -> Result<()> {
        self.get_mut(inst)?.state = state;
        Ok(())
    }

    /// Reads an attribute slot.
    ///
    /// # Errors
    ///
    /// Fails on dangling references or proxy instances (which own no
    /// attributes).
    #[inline]
    pub fn attr_read(&self, inst: InstId, attr: AttrId) -> Result<Value> {
        let i = self.get(inst)?;
        i.attrs.get(attr.index()).cloned().ok_or_else(|| {
            CoreError::runtime(format!(
                "instance {inst} has no attribute slot {attr} (cross-partition access?)"
            ))
        })
    }

    /// Writes an attribute slot, enforcing the declared type.
    ///
    /// # Errors
    ///
    /// Fails on dangling references, missing slots, or type mismatches.
    pub fn attr_write(
        &mut self,
        domain: &Domain,
        inst: InstId,
        attr: AttrId,
        value: Value,
    ) -> Result<()> {
        let class = self.get(inst)?.class;
        let decl = domain.class(class).attribute(attr);
        if decl.ty != value.data_type() {
            return Err(CoreError::runtime(format!(
                "attribute {}.{} is {}, got {}",
                domain.class(class).name,
                decl.name,
                decl.ty,
                value.data_type()
            )));
        }
        let i = self.get_mut(inst)?;
        match i.attrs.get_mut(attr.index()) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(CoreError::runtime(format!(
                "instance {inst} has no attribute slot {attr} (cross-partition access?)"
            ))),
        }
    }

    /// [`ObjectStore::attr_write`] for a value whose type the caller has
    /// proven statically (the bytecode lowering's fused constant stores):
    /// skips the declared-type re-check but keeps every liveness and
    /// missing-slot error, message for message.
    ///
    /// # Errors
    ///
    /// Fails on dangling references or missing slots.
    #[inline]
    pub fn attr_write_typed(&mut self, inst: InstId, attr: AttrId, value: Value) -> Result<()> {
        let i = self.get_mut(inst)?;
        match i.attrs.get_mut(attr.index()) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(CoreError::runtime(format!(
                "instance {inst} has no attribute slot {attr} (cross-partition access?)"
            ))),
        }
    }

    /// All live, locally-owned instances of `class`, in creation order,
    /// without materialising a `Vec`. Proxies are excluded: `select` must
    /// only see the partition's own population.
    pub fn instances_iter(&self, class: ClassId) -> impl Iterator<Item = InstId> + '_ {
        self.instances
            .iter()
            .enumerate()
            .filter(move |(_, i)| i.alive && !i.proxy && i.class == class)
            .map(|(k, _)| InstId::new(k as u32))
    }

    /// All live, locally-owned instances of `class`, in creation order.
    pub fn instances_of(&self, class: ClassId) -> Vec<InstId> {
        self.instances_iter(class).collect()
    }

    /// The first live, locally-owned instance of `class` in creation
    /// order, if any (the unfiltered `select any`).
    pub fn first_instance_of(&self, class: ClassId) -> Option<InstId> {
        self.instances_iter(class).next()
    }

    /// Total number of live instances (proxies excluded).
    pub fn live_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.alive && !i.proxy)
            .count()
    }

    /// Instances linked to `inst` across `assoc`, in link order, without
    /// materialising a `Vec`.
    ///
    /// # Errors
    ///
    /// Fails on dangling references.
    pub fn related_iter(
        &self,
        inst: InstId,
        assoc: AssocId,
    ) -> Result<impl Iterator<Item = InstId> + '_> {
        self.get(inst)?;
        Ok(self.links[assoc.index()].iter().filter_map(move |(a, b)| {
            if *a == inst {
                Some(*b)
            } else if *b == inst {
                Some(*a)
            } else {
                None
            }
        }))
    }

    /// Creates a link, enforcing multiplicity upper bounds.
    ///
    /// # Errors
    ///
    /// Fails on dangling references, duplicate links, participants of the
    /// wrong class, or multiplicity violations.
    pub fn relate(&mut self, domain: &Domain, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        let ca = self.class_of(a)?;
        let cb = self.class_of(b)?;
        let r = domain.association(assoc);
        // Orient (a, b) as (from-side, to-side).
        let (fa, fb) = if ca == r.from && cb == r.to {
            (a, b)
        } else if ca == r.to && cb == r.from {
            (b, a)
        } else {
            return Err(CoreError::runtime(format!(
                "association {} cannot link {} and {}",
                r.name,
                domain.class(ca).name,
                domain.class(cb).name
            )));
        };
        let links = &self.links[assoc.index()];
        if links.contains(&(fa, fb)) {
            return Err(CoreError::runtime(format!(
                "instances already related across {}",
                r.name
            )));
        }
        // `to_mult` bounds how many to-side partners a from-side instance
        // may have; `from_mult` bounds the reverse.
        let to_count = links.iter().filter(|(x, _)| *x == fa).count();
        if !r.to_mult.is_many() && to_count >= 1 {
            return Err(CoreError::runtime(format!(
                "multiplicity violation on {} ({} side)",
                r.name,
                domain.class(r.to).name
            )));
        }
        let from_count = links.iter().filter(|(_, y)| *y == fb).count();
        if !r.from_mult.is_many() && from_count >= 1 {
            return Err(CoreError::runtime(format!(
                "multiplicity violation on {} ({} side)",
                r.name,
                domain.class(r.from).name
            )));
        }
        let _ = Multiplicity::Many; // multiplicities consumed above
        self.links[assoc.index()].push((fa, fb));
        Ok(())
    }

    /// Serializes the full population (instances, tombstones, proxies,
    /// links) into a snapshot stream.
    pub(crate) fn snap_write(&self, w: &mut crate::snapshot::Writer) {
        w.len(self.instances.len());
        for i in &self.instances {
            w.u32(u32::from(i.class));
            w.u32(u32::from(i.state));
            w.bool(i.alive);
            w.bool(i.proxy);
            w.len(i.attrs.len());
            for a in &i.attrs {
                crate::snapshot::write_value(w, a);
            }
        }
        w.len(self.links.len());
        for links in &self.links {
            w.len(links.len());
            for (a, b) in links {
                w.u32(u32::from(*a));
                w.u32(u32::from(*b));
            }
        }
    }

    /// Rebuilds a population from a snapshot stream written by
    /// [`ObjectStore::snap_write`].
    pub(crate) fn snap_read(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> crate::snapshot::SnapResult<ObjectStore> {
        let n = r.len(11)?;
        let mut instances = Vec::with_capacity(n);
        for _ in 0..n {
            let class = ClassId::new(r.u32()?);
            let state = StateId::new(r.u32()?);
            let alive = r.bool()?;
            let proxy = r.bool()?;
            let na = r.len(1)?;
            let mut attrs = Vec::with_capacity(na);
            for _ in 0..na {
                attrs.push(crate::snapshot::read_value(r)?);
            }
            instances.push(Instance {
                class,
                attrs,
                state,
                alive,
                proxy,
            });
        }
        let nl = r.len(4)?;
        let mut links = Vec::with_capacity(nl);
        for _ in 0..nl {
            let np = r.len(8)?;
            let mut pairs = Vec::with_capacity(np);
            for _ in 0..np {
                pairs.push((InstId::new(r.u32()?), InstId::new(r.u32()?)));
            }
            links.push(pairs);
        }
        Ok(ObjectStore { instances, links })
    }

    /// Checks a decoded population against its domain: every class and
    /// state id in range, live attributes shaped and typed as declared,
    /// and every link inside the id space. Restore runs this so an
    /// out-of-range id becomes a structured error instead of an index
    /// panic at the next dispatch.
    pub(crate) fn check(&self, domain: &Domain) -> std::result::Result<(), String> {
        if self.links.len() != domain.associations.len() {
            return Err(format!(
                "{} link tables for {} associations",
                self.links.len(),
                domain.associations.len()
            ));
        }
        for (k, i) in self.instances.iter().enumerate() {
            let Some(c) = domain.classes.get(i.class.index()) else {
                return Err(format!("instance {k} has out-of-range class {}", i.class));
            };
            let state_ok =
                (c.state_machine.as_ref()).is_none_or(|m| i.state.index() < m.states.len());
            let attrs_ok = !i.alive
                || i.proxy
                || (i.attrs.len() == c.attributes.len()
                    && (i.attrs.iter().zip(&c.attributes)).all(|(v, a)| v.data_type() == a.ty));
            if !state_ok || !attrs_ok {
                return Err(format!("instance {k} does not fit class {}", c.name));
            }
        }
        let n = self.instances.len();
        if self
            .links
            .iter()
            .flatten()
            .any(|(a, b)| a.index() >= n || b.index() >= n)
        {
            return Err("link outside the id space".into());
        }
        Ok(())
    }

    /// Checks a pending signal for `to` against the domain: target inside
    /// the id space, event declared on the target's class, arity as
    /// declared. Assumes [`ObjectStore::check`] passed.
    pub(crate) fn check_signal(
        &self,
        domain: &Domain,
        to: InstId,
        event: EventId,
        args: &[Value],
    ) -> std::result::Result<(), String> {
        let Some(i) = self.instances.get(to.index()) else {
            return Err(format!("target {to} outside the id space"));
        };
        match domain.class(i.class).events.get(event.index()) {
            Some(e) if e.params.len() == args.len() => Ok(()),
            Some(e) => Err(format!(
                "event {} takes {} argument(s), got {}",
                e.name,
                e.params.len(),
                args.len()
            )),
            None => Err(format!("out-of-range event {event} for {to}")),
        }
    }

    /// Removes a link.
    ///
    /// # Errors
    ///
    /// Fails if the instances are not related across `assoc`.
    pub fn unrelate(&mut self, a: InstId, b: InstId, assoc: AssocId) -> Result<()> {
        let links = &mut self.links[assoc.index()];
        let before = links.len();
        links.retain(|(x, y)| !((*x == a && *y == b) || (*x == b && *y == a)));
        if links.len() == before {
            return Err(CoreError::runtime("instances are not related"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::model::Multiplicity;
    use xtuml_core::value::DataType;

    fn domain() -> Domain {
        let mut d = DomainBuilder::new("t");
        d.class("A").attr("x", DataType::Int);
        d.class("B").attr("y", DataType::Bool);
        d.association("R1", "A", Multiplicity::One, "B", Multiplicity::Many);
        d.association("R2", "A", Multiplicity::ZeroOne, "B", Multiplicity::ZeroOne);
        d.build().unwrap()
    }

    #[test]
    fn create_read_write_delete() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        assert!(s.is_alive(a));
        assert_eq!(s.attr_read(a, AttrId::new(0)).unwrap(), Value::Int(0));
        s.attr_write(&d, a, AttrId::new(0), Value::Int(9)).unwrap();
        assert_eq!(s.attr_read(a, AttrId::new(0)).unwrap(), Value::Int(9));
        s.delete(a).unwrap();
        assert!(!s.is_alive(a));
        assert!(s.attr_read(a, AttrId::new(0)).is_err());
        assert!(s.delete(a).is_err());
    }

    #[test]
    fn attr_write_type_checked() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        assert!(s
            .attr_write(&d, a, AttrId::new(0), Value::Bool(true))
            .is_err());
    }

    #[test]
    fn relate_and_navigate_both_directions() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        let b1 = s.create(&d, ClassId::new(1));
        let b2 = s.create(&d, ClassId::new(1));
        let r1 = d.assoc_id("R1").unwrap();
        // Argument order must not matter.
        s.relate(&d, a, b1, r1).unwrap();
        s.relate(&d, b2, a, r1).unwrap();
        assert_eq!(
            s.related_iter(a, r1).unwrap().collect::<Vec<_>>(),
            vec![b1, b2]
        );
        assert_eq!(s.related_iter(b1, r1).unwrap().collect::<Vec<_>>(), vec![a]);
        s.unrelate(b1, a, r1).unwrap();
        assert_eq!(s.related_iter(a, r1).unwrap().collect::<Vec<_>>(), vec![b2]);
        assert!(s.unrelate(a, b1, r1).is_err());
    }

    #[test]
    fn multiplicity_enforced() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a1 = s.create(&d, ClassId::new(0));
        let a2 = s.create(&d, ClassId::new(0));
        let b = s.create(&d, ClassId::new(1));
        let r1 = d.assoc_id("R1").unwrap();
        // R1: A side is One — a B instance may link to at most one A.
        s.relate(&d, a1, b, r1).unwrap();
        assert!(s.relate(&d, a2, b, r1).is_err());
        // R2: both sides ZeroOne.
        let r2 = d.assoc_id("R2").unwrap();
        let b2 = s.create(&d, ClassId::new(1));
        s.relate(&d, a1, b2, r2).unwrap();
        assert!(s.relate(&d, a1, b, r2).is_err());
    }

    #[test]
    fn duplicate_link_rejected() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        let b = s.create(&d, ClassId::new(1));
        let r1 = d.assoc_id("R1").unwrap();
        s.relate(&d, a, b, r1).unwrap();
        assert!(s.relate(&d, a, b, r1).is_err());
    }

    #[test]
    fn wrong_class_pair_rejected() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a1 = s.create(&d, ClassId::new(0));
        let a2 = s.create(&d, ClassId::new(0));
        let r1 = d.assoc_id("R1").unwrap();
        assert!(s.relate(&d, a1, a2, r1).is_err());
    }

    #[test]
    fn delete_cleans_links() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        let b = s.create(&d, ClassId::new(1));
        let r1 = d.assoc_id("R1").unwrap();
        s.relate(&d, a, b, r1).unwrap();
        s.delete(b).unwrap();
        assert_eq!(s.related_iter(a, r1).unwrap().collect::<Vec<_>>(), vec![]);
    }

    #[test]
    fn create_with_id_pads_with_dead_tombstones() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        assert_eq!(a, InstId::new(0));
        // Skewed allocation: id 3 on a 4-shard layout from shard 3.
        let b = s.create_with_id(&d, ClassId::new(1), InstId::new(3));
        assert_eq!(b, InstId::new(3));
        assert_eq!(s.id_space(), 4);
        // The padding ids fail deterministically, like dangling refs.
        for pad in [1u32, 2] {
            let err = s.attr_read(InstId::new(pad), AttrId::new(0)).unwrap_err();
            assert!(err.to_string().contains("deleted"), "{err}");
        }
        // The real instance is live with default attributes and is the
        // only live instance of its class.
        assert!(s.attr_read(b, AttrId::new(0)).is_ok());
        assert_eq!(s.instances_of(ClassId::new(1)), vec![b]);
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    #[should_panic(expected = "allocate past the end")]
    fn create_with_id_rejects_backfill() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        s.create(&d, ClassId::new(0));
        s.create_with_id(&d, ClassId::new(0), InstId::new(0));
    }

    #[test]
    fn proxies_have_class_but_no_attrs() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let p = s.create_proxy(ClassId::new(1));
        assert!(s.is_proxy(p));
        assert_eq!(s.class_of(p).unwrap(), ClassId::new(1));
        let err = s.attr_read(p, AttrId::new(0)).unwrap_err();
        assert!(err.to_string().contains("cross-partition"));
        // Proxies are invisible to select and counts...
        assert!(s.instances_of(ClassId::new(1)).is_empty());
        assert_eq!(s.live_count(), 0);
        // ...but navigable: links may touch them.
        let a = s.create(&d, ClassId::new(0));
        assert!(!s.is_proxy(a));
        let r1 = d.assoc_id("R1").unwrap();
        s.relate(&d, a, p, r1).unwrap();
        assert_eq!(s.related_iter(a, r1).unwrap().collect::<Vec<_>>(), vec![p]);
    }

    #[test]
    fn iterator_variants_match_vec_variants() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a = s.create(&d, ClassId::new(0));
        let b1 = s.create(&d, ClassId::new(1));
        let b2 = s.create(&d, ClassId::new(1));
        let r1 = d.assoc_id("R1").unwrap();
        s.relate(&d, a, b1, r1).unwrap();
        s.relate(&d, a, b2, r1).unwrap();
        assert_eq!(
            s.instances_iter(ClassId::new(1)).collect::<Vec<_>>(),
            s.instances_of(ClassId::new(1))
        );
        assert_eq!(s.first_instance_of(ClassId::new(1)), Some(b1));
        assert_eq!(s.first_instance_of(ClassId::new(0)), Some(a));
        assert_eq!(
            s.related_iter(a, r1).unwrap().collect::<Vec<_>>(),
            vec![b1, b2]
        );
        s.delete(b1).unwrap();
        assert_eq!(s.first_instance_of(ClassId::new(1)), Some(b2));
        assert!(s.related_iter(b1, r1).is_err());
    }

    #[test]
    fn live_count_and_instances_of() {
        let d = domain();
        let mut s = ObjectStore::new(d.associations.len());
        let a1 = s.create(&d, ClassId::new(0));
        let _b = s.create(&d, ClassId::new(1));
        let a2 = s.create(&d, ClassId::new(0));
        assert_eq!(s.live_count(), 3);
        assert_eq!(s.instances_of(ClassId::new(0)), vec![a1, a2]);
        s.delete(a1).unwrap();
        assert_eq!(s.instances_of(ClassId::new(0)), vec![a2]);
    }
}
