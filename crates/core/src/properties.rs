//! Structural hypergraph properties (§3.5 and §6.1 of the paper):
//! degree, intersection size (BIP), c-multi-intersection size (BMIP) and
//! VC-dimension.

use std::collections::{HashMap, HashSet};

use crate::bitset::BitSet;
use crate::error::CoreError;
use crate::hypergraph::Hypergraph;

/// The degree `deg(H)`: the maximum number of edges any vertex occurs in
/// (Definition 4). Zero for the empty hypergraph.
pub fn degree(h: &Hypergraph) -> usize {
    h.vertex_ids()
        .map(|v| h.edges_of(v).len())
        .max()
        .unwrap_or(0)
}

/// The intersection size of `H`: the maximum `|e1 ∩ e2|` over distinct
/// edges (the `d` of the BIP, Definition 2 with `c = 2`).
/// Zero when `H` has fewer than two edges.
pub fn intersection_size(h: &Hypergraph) -> usize {
    let m = h.num_edges();
    let mut best = 0;
    for i in 0..m {
        let ei = h.edge_set(i as u32);
        // An edge of size ≤ best cannot improve the bound.
        if h.edge(i as u32).len() <= best {
            continue;
        }
        for j in i + 1..m {
            let len = ei.intersection_len(h.edge_set(j as u32));
            if len > best {
                best = len;
            }
        }
    }
    best
}

/// The `c`-multi-intersection size of `H`: the maximum `|⋂ E'|` over all
/// `E' ⊆ E(H)` with `|E'| = c` (Definition 2). Zero when `H` has fewer than
/// `c` edges.
///
/// Uses branch-and-bound on the running intersection: a prefix whose
/// intersection is not larger than the best found so far cannot improve it.
pub fn multi_intersection_size(h: &Hypergraph, c: usize) -> usize {
    assert!(c >= 1, "multi-intersection size requires c >= 1");
    let m = h.num_edges();
    if m < c {
        return 0;
    }
    if c == 1 {
        return h.arity();
    }
    if c == 2 {
        return intersection_size(h);
    }
    let mut best = 0usize;
    let mut stack_sets: Vec<BitSet> = Vec::with_capacity(c);
    multi_rec(h, c, 0, &mut stack_sets, &mut best);
    best
}

fn multi_rec(h: &Hypergraph, c: usize, start: usize, chosen: &mut Vec<BitSet>, best: &mut usize) {
    let m = h.num_edges();
    let depth = chosen.len();
    if depth == c {
        let size = chosen.last().map(BitSet::len).unwrap_or(0);
        if size > *best {
            *best = size;
        }
        return;
    }
    let remaining = c - depth;
    for i in start..m.saturating_sub(remaining - 1) {
        let next = if let Some(prev) = chosen.last() {
            let inter = prev.intersection(h.edge_set(i as u32));
            // Prune: adding more edges only shrinks the intersection.
            if inter.len() <= *best {
                continue;
            }
            inter
        } else {
            if h.edge(i as u32).len() <= *best {
                continue;
            }
            h.edge_set(i as u32).clone()
        };
        chosen.push(next);
        multi_rec(h, c, i + 1, chosen, best);
        chosen.pop();
    }
}

/// Whether `H` is a `(c,d)`-hypergraph (Definition 1): every `c` distinct
/// edges intersect in at most `d` vertices.
pub fn is_cd_hypergraph(h: &Hypergraph, c: usize, d: usize) -> bool {
    multi_intersection_size(h, c) <= d
}

/// Exact VC-dimension (Definition 5), computed by level-wise search over
/// shattered sets.
///
/// * Vertices with identical edge-incidence profiles are collapsed to one
///   representative (they can never be separated by a trace).
/// * The family of shattered sets is downward closed, so sets are extended
///   one vertex at a time in increasing id order.
/// * A shattered set `X` needs `2^|X|` distinct traces and each of the `m`
///   edges leaves one, so no level beyond `|X| = ⌊log2 m⌋` is searched.
/// * `budget` bounds the number of shatter checks; `Err(BudgetExhausted)`
///   is returned when exceeded (the paper reports VC-dimension timeouts for
///   7 random CSP instances).
pub fn vc_dimension(h: &Hypergraph, budget: u64) -> Result<usize, CoreError> {
    let m = h.num_edges();
    if m == 0 {
        return Ok(0);
    }
    // Representatives: one vertex per distinct incidence profile.
    let mut profile_rep: HashMap<&[u32], u32> = HashMap::new();
    let mut reps: Vec<u32> = Vec::new();
    for v in h.vertex_ids() {
        let profile = h.edges_of(v);
        if !profile_rep.contains_key(profile) {
            profile_rep.insert(profile, v);
            reps.push(v);
        }
    }

    let max_dim = m.ilog2() as usize;
    let mut checks: u64 = 0;
    let mut scratch = ShatterScratch::default();
    // The shattered sets of size `dim`, stored back to back; level 0 holds
    // the empty set.
    let mut current: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut dim = 0;
    while dim < max_dim {
        next.clear();
        let sets = current.len().checked_div(dim).unwrap_or(1);
        for x in (0..sets).map(|s| &current[s * dim..(s + 1) * dim]) {
            let start = x.last().map(|&v| v + 1).unwrap_or(0);
            scratch.load(h, x);
            for &v in reps.iter().filter(|&&r| r >= start) {
                checks += 1;
                if checks > budget {
                    return Err(CoreError::BudgetExhausted {
                        what: "VC-dimension",
                    });
                }
                if scratch.shattered_with(h, v) {
                    next.extend_from_slice(x);
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return Ok(dim);
        }
        dim += 1;
        std::mem::swap(&mut current, &mut next);
    }
    Ok(dim)
}

/// The reusable workspace of [`vc_dimension`]'s shatter check: the trace
/// of one set `x` on every edge, and a bitmap of the traces seen so far.
#[derive(Default)]
struct ShatterScratch {
    /// Bit `i` of `traces[e]` is set when edge `e` contains `x[i]`.
    traces: Vec<u32>,
    /// `x.len()` of the loaded set.
    len: usize,
    /// One bit per possible trace of `x ∪ {v}`.
    seen: Vec<u64>,
}

impl ShatterScratch {
    /// Records the trace of `x` (sorted, `|x| < 31`) on every edge of `h`.
    fn load(&mut self, h: &Hypergraph, x: &[u32]) {
        assert!(x.len() < 31, "shatter check limited to 30 vertices");
        self.len = x.len();
        self.traces.clear();
        self.traces.extend(h.edge_ids().map(|e| {
            let es = h.edge_set(e);
            x.iter()
                .enumerate()
                .filter(|&(_, &u)| es.contains(u))
                .fold(0u32, |mask, (i, _)| mask | 1 << i)
        }));
    }

    /// Whether `x ∪ {v}` is shattered, for the `x` last [`load`]ed and a
    /// vertex `v` not in it. Returns as soon as every trace has been seen,
    /// or once the remaining edges are too few to supply the missing ones.
    ///
    /// [`load`]: ShatterScratch::load
    fn shattered_with(&mut self, h: &Hypergraph, v: u32) -> bool {
        let need = 1usize << (self.len + 1);
        let m = self.traces.len();
        if m < need {
            return false;
        }
        self.seen.clear();
        self.seen.resize(need.div_ceil(64), 0);
        let mut found = 0;
        for (e, &trace) in self.traces.iter().enumerate() {
            let t = (trace | u32::from(h.edge_set(e as u32).contains(v)) << self.len) as usize;
            let (word, mask) = (t / 64, 1u64 << (t % 64));
            if self.seen[word] & mask == 0 {
                self.seen[word] |= mask;
                found += 1;
                if found == need {
                    return true;
                }
            }
            if found + (m - e - 1) < need {
                return false;
            }
        }
        false
    }
}

/// Whether `x` (sorted vertex ids, `|x| ≤ 30`) is shattered:
/// `{e ∩ x | e ∈ E(H)} = 2^x`. The plain definition, kept as the
/// reference [`vc_dimension`]'s shatter check is tested against.
pub fn is_shattered(h: &Hypergraph, x: &[u32]) -> bool {
    assert!(x.len() <= 30, "shatter check limited to 30 vertices");
    let need = 1u64 << x.len();
    let mut seen: HashSet<u32> = HashSet::new();
    for e in h.edge_ids() {
        let es = h.edge_set(e);
        let mut mask = 0u32;
        for (i, &v) in x.iter().enumerate() {
            if es.contains(v) {
                mask |= 1 << i;
            }
        }
        if seen.insert(mask) && seen.len() as u64 == need {
            return true;
        }
    }
    seen.len() as u64 == need
}

/// All five Table-2 metrics of a hypergraph, computed in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuralProperties {
    /// `deg(H)`.
    pub degree: usize,
    /// Intersection size (BIP parameter `d` with `c=2`).
    pub bip: usize,
    /// 3-multi-intersection size.
    pub bmip3: usize,
    /// 4-multi-intersection size.
    pub bmip4: usize,
    /// VC-dimension; `None` when the computation exceeded its budget
    /// (reported as a timeout, as in the paper).
    pub vc_dim: Option<usize>,
}

/// Computes all Table-2 properties. `vc_budget` bounds the VC-dimension
/// search (number of shatter checks).
pub fn structural_properties(h: &Hypergraph, vc_budget: u64) -> StructuralProperties {
    StructuralProperties {
        degree: degree(h),
        bip: intersection_size(h),
        bmip3: multi_intersection_size(h, 3),
        bmip4: multi_intersection_size(h, 4),
        vc_dim: vc_dimension(h, vc_budget).ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_edges;
    use proptest::prelude::*;

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    #[test]
    fn degree_of_triangle() {
        assert_eq!(degree(&triangle()), 2);
    }

    #[test]
    fn degree_of_star() {
        let h = hypergraph_from_edges(&[
            ("e0", &["c", "x"]),
            ("e1", &["c", "y"]),
            ("e2", &["c", "z"]),
        ]);
        assert_eq!(degree(&h), 3);
    }

    #[test]
    fn intersection_sizes() {
        let h = hypergraph_from_edges(&[
            ("e0", &["a", "b", "c", "d"]),
            ("e1", &["b", "c", "d", "e"]),
            ("e2", &["c", "d", "e", "f"]),
        ]);
        assert_eq!(intersection_size(&h), 3); // e0∩e1 = {b,c,d}
        assert_eq!(multi_intersection_size(&h, 3), 2); // all three share {c,d}
        assert_eq!(multi_intersection_size(&h, 4), 0); // fewer than 4 edges
    }

    #[test]
    fn multi_intersection_c1_is_arity() {
        let h = triangle();
        assert_eq!(multi_intersection_size(&h, 1), 2);
    }

    #[test]
    fn cd_hypergraph_checks() {
        let h = triangle();
        assert!(is_cd_hypergraph(&h, 2, 1)); // edges pairwise share ≤ 1 vertex
        assert!(!is_cd_hypergraph(&h, 2, 0));
        assert!(is_cd_hypergraph(&h, 3, 0)); // no vertex in all three edges
    }

    #[test]
    fn bounded_degree_implies_multi_intersection_zero() {
        // A hypergraph with degree δ is a (δ+1, 0)-hypergraph (§3.5).
        let h = hypergraph_from_edges(&[
            ("e0", &["a", "b"]),
            ("e1", &["b", "c"]),
            ("e2", &["c", "d"]),
        ]);
        let delta = degree(&h);
        assert_eq!(multi_intersection_size(&h, delta + 1), 0);
    }

    #[test]
    fn shattering_singleton() {
        // Single edge {a}: {a} is not shattered (no edge avoiding a).
        let h = hypergraph_from_edges(&[("e", &["a"])]);
        assert!(!is_shattered(&h, &[0]));
        assert_eq!(vc_dimension(&h, 1_000).unwrap(), 0);
    }

    #[test]
    fn vc_dim_of_triangle_is_one() {
        // For any pair {u,v}: no edge contains both a missing... the trace
        // family of the triangle on a 2-set {a,b} misses {a,b}? No: R={a,b}.
        // But the empty trace requires an edge avoiding both a and b: only
        // S={b,c} and T={c,a} touch them. So {a,b} is not shattered.
        let h = triangle();
        assert_eq!(vc_dimension(&h, 100_000).unwrap(), 1);
    }

    #[test]
    fn vc_dim_two() {
        // Edges: {}, need traces ∅,{a},{b},{a,b} on X={a,b}.
        let h = hypergraph_from_edges(&[
            ("full", &["a", "b"]),
            ("ea", &["a", "x"]),
            ("eb", &["b", "x"]),
            ("none", &["x", "y"]),
        ]);
        assert!(is_shattered(&h, &[0, 1]));
        assert_eq!(vc_dimension(&h, 100_000).unwrap(), 2);
    }

    #[test]
    fn vc_budget_exhaustion() {
        let h = triangle();
        match vc_dimension(&h, 1) {
            Err(CoreError::BudgetExhausted { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn structural_properties_bundle() {
        let p = structural_properties(&triangle(), 100_000);
        assert_eq!(p.degree, 2);
        assert_eq!(p.bip, 1);
        assert_eq!(p.bmip3, 0);
        assert_eq!(p.bmip4, 0);
        assert_eq!(p.vc_dim, Some(1));
    }

    /// Builds a hypergraph from edges given as vertex indices (duplicate
    /// edges kept, so traces can repeat).
    fn from_shape(shape: &[Vec<u8>]) -> Hypergraph {
        let mut b = crate::HypergraphBuilder::named("random");
        for (i, edge) in shape.iter().enumerate() {
            let names: Vec<String> = edge.iter().map(|v| format!("v{v}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b.add_edge(&format!("e{i}"), &refs);
        }
        b.build()
    }

    /// The VC-dimension by brute force over every vertex subset.
    fn brute_force_vc(h: &Hypergraph) -> usize {
        let n = h.num_vertices() as u32;
        (0u32..1 << n)
            .map(|bits| (0..n).filter(|v| bits & 1 << v != 0).collect::<Vec<u32>>())
            .filter(|x| is_shattered(h, x))
            .map(|x| x.len())
            .max()
            .unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn shatter_kernel_agrees_with_is_shattered(
            shape in prop::collection::vec(prop::collection::vec(0u8..8, 1..=5), 1..=20),
            picks in prop::collection::vec(0u32..8, 1..=4),
        ) {
            let h = from_shape(&shape);
            let mut x: Vec<u32> = picks.iter().map(|&p| p % h.num_vertices() as u32).collect();
            x.sort_unstable();
            x.dedup();
            // One scratch for every split, as `vc_dimension` reuses it.
            let mut scratch = ShatterScratch::default();
            for (i, &v) in x.iter().enumerate() {
                let mut rest = x.clone();
                rest.remove(i);
                scratch.load(&h, &rest);
                prop_assert_eq!(scratch.shattered_with(&h, v), is_shattered(&h, &x));
            }
        }

        #[test]
        fn vc_dimension_agrees_with_brute_force(
            shape in prop::collection::vec(prop::collection::vec(0u8..7, 0..=5), 1..=24),
        ) {
            let h = from_shape(&shape);
            prop_assert_eq!(vc_dimension(&h, u64::MAX).unwrap(), brute_force_vc(&h));
        }
    }

    #[test]
    fn empty_hypergraph_properties() {
        let h = hypergraph_from_edges(&[]);
        assert_eq!(degree(&h), 0);
        assert_eq!(intersection_size(&h), 0);
        assert_eq!(vc_dimension(&h, 10).unwrap(), 0);
    }
}
