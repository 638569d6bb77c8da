//! [`WorldSpec`]: the fabric-independent description of one distributed
//! program — node count, shared-object declarations, synchronization
//! objects, application threads and an optional coverage recorder.
//!
//! Every fabric (this crate's simulator, `munin-rt`, `munin-tcp`) runs the
//! same spec; only the thread-context type `C` differs, and
//! [`WorldSpec::map_threads`] re-wraps the bodies for it.

use munin_obs::CoverageMap;
use munin_types::{NodeId, ObjectDecl, ObjectId, SyncDecls, ThreadId};
use std::sync::Arc;

/// One application thread body, run against the fabric's context `C`.
pub type ThreadBody<C> = Box<dyn FnOnce(&mut C) + Send>;

/// What to run: objects, synchronization objects and threads on `n_nodes`
/// nodes. Object ids are dense in declaration order, and thread ids dense
/// in spawn order, on every fabric.
pub struct WorldSpec<C: ?Sized> {
    n_nodes: usize,
    decls: Vec<ObjectDecl>,
    /// Locks, barriers and condition variables, shared by every node's
    /// server.
    pub sync: SyncDecls,
    threads: Vec<(NodeId, ThreadBody<C>)>,
    /// Protocol-state coverage recorder: servers note transitions into it
    /// through `KernelApi::coverage`.
    pub coverage: Option<Arc<CoverageMap>>,
}

impl<C: ?Sized> WorldSpec<C> {
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "a world needs at least one node");
        assert!(n_nodes <= u16::MAX as usize, "node ids are u16");
        WorldSpec {
            n_nodes,
            decls: Vec::new(),
            sync: SyncDecls::default(),
            threads: Vec::new(),
            coverage: None,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The declared objects, sorted by id.
    pub fn decls(&self) -> &[ObjectDecl] {
        &self.decls
    }

    /// Mutable view of the declared objects, for annotation rewrites
    /// (retyping, eager flags) before the run.
    pub fn decls_mut(&mut self) -> &mut [ObjectDecl] {
        &mut self.decls
    }

    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Declare a shared object before the run starts (the paper's programs
    /// declare shared data with annotations processed at compile time).
    /// Returns the assigned id: dense, in declaration order.
    pub fn declare(&mut self, mut decl: ObjectDecl, home: NodeId) -> ObjectId {
        assert!(home.index() < self.n_nodes, "home {home} out of range");
        let id = ObjectId(self.decls.len() as u64);
        decl.id = id;
        decl.home = home;
        self.decls.push(decl);
        id
    }

    /// Spawn an application thread on `node`. Returns its id: dense, in
    /// spawn order.
    pub fn spawn(&mut self, node: NodeId, f: impl FnOnce(&mut C) + Send + 'static) -> ThreadId {
        assert!(node.index() < self.n_nodes, "node {node} out of range");
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push((node, Box::new(f)));
        id
    }

    /// Re-wrap every thread body for another context type (e.g. a
    /// `dyn Par` program body for one fabric's concrete context).
    pub fn map_threads<D: ?Sized>(
        self,
        mut wrap: impl FnMut(ThreadBody<C>) -> ThreadBody<D>,
    ) -> WorldSpec<D> {
        WorldSpec {
            n_nodes: self.n_nodes,
            decls: self.decls,
            sync: self.sync,
            threads: self.threads.into_iter().map(|(node, body)| (node, wrap(body))).collect(),
            coverage: self.coverage,
        }
    }

    /// Hand the declarations (sorted by id) and the threads (in spawn
    /// order) to the fabric that runs them.
    pub fn into_parts(self) -> (Vec<ObjectDecl>, Vec<(NodeId, ThreadBody<C>)>) {
        (self.decls, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::SharingType;

    fn decl(name: &str) -> ObjectDecl {
        ObjectDecl::new(ObjectId(99), name, 8, SharingType::WriteMany, NodeId(0))
    }

    #[test]
    fn ids_are_dense_in_declaration_and_spawn_order() {
        let mut spec = WorldSpec::<u32>::new(3);
        let ids: Vec<ObjectId> = ["a", "b", "c"]
            .iter()
            .zip([2, 0, 1])
            .map(|(n, h)| spec.declare(decl(n), NodeId(h)))
            .collect();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        let got: Vec<(ObjectId, &str, NodeId)> =
            spec.decls().iter().map(|d| (d.id, d.name.as_str(), d.home)).collect();
        assert_eq!(
            got,
            vec![
                (ObjectId(0), "a", NodeId(2)),
                (ObjectId(1), "b", NodeId(0)),
                (ObjectId(2), "c", NodeId(1))
            ]
        );
        assert_eq!(spec.spawn(NodeId(2), |_| {}), ThreadId(0));
        assert_eq!(spec.spawn(NodeId(0), |_| {}), ThreadId(1));
        let nodes: Vec<NodeId> = spec.into_parts().1.into_iter().map(|(n, _)| n).collect();
        assert_eq!(nodes, vec![NodeId(2), NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "home n3 out of range")]
    fn out_of_range_home_panics() {
        WorldSpec::<u32>::new(3).declare(decl("x"), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "node n2 out of range")]
    fn out_of_range_thread_node_panics() {
        WorldSpec::<u32>::new(2).spawn(NodeId(2), |_| {});
    }
}
