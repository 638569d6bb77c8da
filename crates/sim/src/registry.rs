//! [`Registry`]: the object-declaration registry every fabric keeps.
//!
//! The paper compiles declarations into the program, so every node knows
//! every object's annotation without asking. The registry is that table:
//! the build-time declarations plus the objects allocated at run time,
//! and a version counter that moves on each runtime retype, so servers
//! can drop their cached declarations cheaply.
//!
//! The simulator's kernel holds one directly. `munin-rt` wraps one behind
//! a lock for the node servers of one process; the TCP fabric's
//! coordinator keeps the master copy in one and pushes each write to the
//! other processes' copies through [`Registry::apply`].

use munin_types::{LockId, NodeId, ObjectDecl, ObjectId, SharingType};
use std::collections::HashMap;

/// Declarations by id, the retype version, and the next free id.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    decls: HashMap<ObjectId, ObjectDecl>,
    version: u64,
    next_id: u64,
}

impl Registry {
    /// A registry holding the build-time declarations (ids dense from 0).
    /// Runtime allocations continue after the highest declared id.
    pub fn new(decls: Vec<ObjectDecl>) -> Self {
        let next_id = decls.iter().map(|d| d.id.0 + 1).max().unwrap_or(0);
        Registry { decls: decls.into_iter().map(|d| (d.id, d)).collect(), version: 0, next_id }
    }

    /// Allocate the next id and register `decl` under it. The
    /// declaration's `id` field is overwritten with the assigned id and
    /// `home` with `home`. Registration does not move the version: no
    /// server can hold a cached copy of an object that did not exist.
    pub fn register(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        decl.id = id;
        decl.home = home;
        self.decls.insert(id, decl);
        id
    }

    pub fn decl(&self, obj: ObjectId) -> Option<&ObjectDecl> {
        self.decls.get(&obj)
    }

    /// Ids of the objects declared with `lock` as their associated lock,
    /// sorted by id.
    pub fn assoc_objects(&self, lock: LockId) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> =
            self.decls.values().filter(|d| d.associated_lock == Some(lock)).map(|d| d.id).collect();
        v.sort_unstable();
        v
    }

    /// Change `obj`'s sharing annotation and bump the version. Returns the
    /// updated declaration, or `None` (and no bump) for an unknown id.
    pub fn retype(&mut self, obj: ObjectId, sharing: SharingType) -> Option<&ObjectDecl> {
        let d = self.decls.get_mut(&obj)?;
        d.sharing = sharing;
        self.version += 1;
        Some(d)
    }

    /// Monotone counter bumped on every retype.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Adopt one write made to another copy of the registry: insert or
    /// replace `decl` and take that copy's `version`.
    pub fn apply(&mut self, decl: ObjectDecl, version: u64) {
        self.next_id = self.next_id.max(decl.id.0 + 1);
        self.decls.insert(decl.id, decl);
        self.version = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, lock: Option<u32>) -> ObjectDecl {
        let mut d = ObjectDecl::new(ObjectId(99), name, 8, SharingType::WriteMany, NodeId(0));
        d.associated_lock = lock.map(LockId);
        d
    }

    fn declared(names: &[&str]) -> Vec<ObjectDecl> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| ObjectDecl { id: ObjectId(i as u64), ..decl(n, None) })
            .collect()
    }

    #[test]
    fn runtime_ids_continue_densely_after_the_declared_ones() {
        let mut r = Registry::new(declared(&["a", "b"]));
        let id = r.register(decl("c", None), NodeId(2));
        assert_eq!(id, ObjectId(2));
        let d = r.decl(id).expect("registered");
        assert_eq!((d.id, d.home, d.name.as_str()), (ObjectId(2), NodeId(2), "c"));
        assert_eq!(r.register(decl("d", None), NodeId(0)), ObjectId(3));
        assert_eq!(r.version(), 0, "registration leaves the version alone");
    }

    #[test]
    fn retype_bumps_the_version_only_for_known_objects() {
        let mut r = Registry::new(declared(&["a"]));
        let d = r.retype(ObjectId(0), SharingType::ProducerConsumer).expect("known");
        assert_eq!(d.sharing, SharingType::ProducerConsumer);
        assert_eq!(r.version(), 1);
        assert!(r.retype(ObjectId(7), SharingType::Migratory).is_none());
        assert_eq!(r.version(), 1);
    }

    #[test]
    fn assoc_objects_are_sorted_by_id() {
        let mut r = Registry::default();
        for (name, lock) in [("x", Some(1)), ("y", Some(2)), ("z", Some(1)), ("w", Some(1))] {
            r.register(decl(name, lock), NodeId(0));
        }
        assert_eq!(r.assoc_objects(LockId(1)), vec![ObjectId(0), ObjectId(2), ObjectId(3)]);
        assert!(r.assoc_objects(LockId(9)).is_empty());
    }

    #[test]
    fn apply_replays_another_copys_writes() {
        let mut master = Registry::new(declared(&["a"]));
        let mut replica = master.clone();
        let id = master.register(decl("b", None), NodeId(1));
        replica.apply(master.decl(id).cloned().expect("registered"), master.version());
        let d = master.retype(ObjectId(0), SharingType::Migratory).cloned().expect("known");
        replica.apply(d, master.version());
        assert_eq!(replica.version(), 1);
        assert_eq!(replica.decl(ObjectId(0)).map(|d| d.sharing), Some(SharingType::Migratory));
        assert_eq!(replica.decl(id).map(|d| d.home), Some(NodeId(1)));
        assert_eq!(replica.register(decl("c", None), NodeId(0)), ObjectId(2));
    }
}
