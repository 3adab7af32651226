//! Incremental hypergraph construction with string interning.

use std::collections::{HashMap, HashSet};

use crate::bitset::BitSet;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Builds a [`Hypergraph`] edge by edge, interning vertex names.
///
/// The builder mirrors the clean-up steps of §5.4 of the paper: empty edges
/// are rejected, duplicate vertices within an edge are collapsed, and
/// duplicate edges (same vertex set) can be dropped via
/// [`HypergraphBuilder::dedupe_edges`].
#[derive(Default)]
pub struct HypergraphBuilder {
    name: String,
    vertex_names: Vec<String>,
    vertex_ids: HashMap<String, VertexId>,
    edge_names: Vec<String>,
    edges: Vec<Vec<VertexId>>,
    dedupe: bool,
    seen_edge_sets: HashMap<Vec<VertexId>, EdgeId>,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder for a named hypergraph.
    pub fn named(name: impl Into<String>) -> Self {
        HypergraphBuilder {
            name: name.into(),
            ..Self::default()
        }
    }

    /// When enabled, edges whose vertex set equals a previously added edge
    /// are silently dropped (multi-edge elimination, §5.4).
    pub fn dedupe_edges(mut self, yes: bool) -> Self {
        self.dedupe = yes;
        self
    }

    /// Interns a vertex name, returning its id.
    pub fn vertex(&mut self, name: &str) -> VertexId {
        if let Some(&id) = self.vertex_ids.get(name) {
            return id;
        }
        let id = self.vertex_names.len() as VertexId;
        self.vertex_names.push(name.to_string());
        self.vertex_ids.insert(name.to_string(), id);
        id
    }

    /// Adds an edge given vertex names. Duplicate vertices within the edge
    /// are collapsed. Empty edges are ignored (edges must be non-empty).
    ///
    /// Returns the id of the edge, or `None` if the edge was empty or was
    /// dropped as a duplicate.
    pub fn add_edge<S: AsRef<str>>(&mut self, edge_name: &str, vertices: &[S]) -> Option<EdgeId> {
        let ids: Vec<VertexId> = vertices.iter().map(|v| self.vertex(v.as_ref())).collect();
        self.add_edge_ids(edge_name, ids)
    }

    /// Adds an edge given pre-interned vertex ids.
    pub fn add_edge_ids(&mut self, edge_name: &str, mut ids: Vec<VertexId>) -> Option<EdgeId> {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return None;
        }
        if self.dedupe {
            if let Some(&existing) = self.seen_edge_sets.get(&ids) {
                return Some(existing);
            }
        }
        let id = self.edges.len() as EdgeId;
        if self.dedupe {
            self.seen_edge_sets.insert(ids.clone(), id);
        }
        self.edge_names.push(edge_name.to_string());
        self.edges.push(ids);
        Some(id)
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the hypergraph: drops isolated vertices (vertices never used
    /// by any edge cannot exist because vertices are only interned on use,
    /// unless [`HypergraphBuilder::vertex`] was called directly; those are
    /// removed here) and computes the incidence index.
    pub fn build(self) -> Hypergraph {
        // Determine which vertices are actually used.
        let mut used = vec![false; self.vertex_names.len()];
        for e in &self.edges {
            for &v in e {
                used[v as usize] = true;
            }
        }
        // Remap to a dense id space without isolated vertices.
        let mut remap = vec![u32::MAX; self.vertex_names.len()];
        let mut vertex_names = Vec::new();
        for (old, name) in self.vertex_names.into_iter().enumerate() {
            if used[old] {
                remap[old] = vertex_names.len() as VertexId;
                vertex_names.push(name);
            }
        }
        let edges: Vec<Vec<VertexId>> = self
            .edges
            .into_iter()
            .map(|e| e.into_iter().map(|v| remap[v as usize]).collect())
            .collect();

        // A deduplicating builder never keeps a repeated vertex set.
        let has_duplicate_edges = !self.dedupe && {
            let mut seen = HashSet::with_capacity(edges.len());
            !edges.iter().all(|e| seen.insert(e.as_slice()))
        };

        let mut incidence: Vec<Vec<EdgeId>> = vec![Vec::new(); vertex_names.len()];
        let mut edge_sets = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            for &v in e {
                incidence[v as usize].push(i as EdgeId);
            }
            let mut s = BitSet::with_capacity(vertex_names.len());
            for &v in e {
                s.insert(v);
            }
            edge_sets.push(s);
        }

        Hypergraph {
            name: self.name,
            vertex_names,
            edge_names: self.edge_names,
            edges,
            edge_sets,
            incidence,
            has_duplicate_edges,
        }
    }
}

/// Convenience constructor used pervasively in tests: builds a hypergraph
/// from `(edge_name, vertex_names)` pairs.
pub fn hypergraph_from_edges(edges: &[(&str, &[&str])]) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for (name, vs) in edges {
        b.add_edge(name, vs);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut b = HypergraphBuilder::new();
        let a1 = b.vertex("a");
        let a2 = b.vertex("a");
        assert_eq!(a1, a2);
        let c = b.vertex("c");
        assert_ne!(a1, c);
    }

    #[test]
    fn duplicate_vertices_in_edge_collapse() {
        let mut b = HypergraphBuilder::new();
        b.add_edge("e", &["x", "x", "y"]);
        let h = b.build();
        assert_eq!(h.edge(0).len(), 2);
    }

    #[test]
    fn empty_edges_rejected() {
        let mut b = HypergraphBuilder::new();
        let r = b.add_edge::<&str>("e", &[]);
        assert!(r.is_none());
        assert_eq!(b.num_edges(), 0);
    }

    #[test]
    fn dedupe_drops_equal_edge_sets() {
        let mut b = HypergraphBuilder::new().dedupe_edges(true);
        let e1 = b.add_edge("e1", &["x", "y"]).unwrap();
        let e2 = b.add_edge("e2", &["y", "x"]).unwrap();
        assert_eq!(e1, e2);
        let h = b.build();
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn without_dedupe_parallel_edges_kept() {
        let mut b = HypergraphBuilder::new();
        b.add_edge("e1", &["x", "y"]);
        b.add_edge("e2", &["y", "x"]);
        let h = b.build();
        assert_eq!(h.num_edges(), 2);
        assert!(h.edges_equal(0, 1));
    }

    #[test]
    fn isolated_vertices_dropped_on_build() {
        let mut b = HypergraphBuilder::new();
        b.vertex("lonely");
        b.add_edge("e", &["x", "y"]);
        let h = b.build();
        assert_eq!(h.num_vertices(), 2);
        assert!(h.vertex_by_name("lonely").is_none());
        // Remapped ids are still consistent.
        assert_eq!(h.edge(0).len(), 2);
        for &v in h.edge(0) {
            assert!((v as usize) < h.num_vertices());
        }
    }

    #[test]
    fn from_edges_helper() {
        let h = hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"])]);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.num_vertices(), 3);
    }
}
