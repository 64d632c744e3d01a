//! In-network reduction — paper footnote 3.
//!
//! Anton 3 implements in-network *reduction* for summing stored-set
//! forces: the mirror image of the position multicast. Where a multicast
//! tree copies one position outward along dimension-order paths, a
//! reduction tree sums force contributions inward along the reversed
//! tree, so each channel carries one partially-summed force instead of
//! one packet per contributor. The paper does not evaluate this feature
//! (it is out of scope there); we implement it as the natural extension
//! and use it for the multicast/reduction duality tests.
//!
//! The mechanics reuse the fence-style merge counter: a reduction node
//! expects a known number of contributions per (atom, port), accumulates
//! fixed-point partial sums, and forwards a single combined packet when
//! the count completes.

use anton_model::topology::{DimOrder, NodeId, Torus, TorusCoord};
use std::collections::HashMap;

/// A fixed-point force contribution being reduced.
pub type ForceVec = [i64; 3];

/// One reduction node's state for in-flight sums: per atom, the partial
/// sum and the outstanding contribution count.
#[derive(Clone, Debug, Default)]
pub struct ReductionNode {
    pending: HashMap<u64, (ForceVec, u32)>,
}

impl ReductionNode {
    /// Creates an idle reduction node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the node to expect `count` contributions for `atom`.
    ///
    /// # Panics
    /// Panics if the atom is already armed (software must not reuse an
    /// atom slot before the previous reduction completes) or `count` is
    /// zero.
    pub fn arm(&mut self, atom: u64, count: u32) {
        assert!(count > 0, "a reduction needs at least one contribution");
        let prev = self.pending.insert(atom, ([0; 3], count));
        assert!(
            prev.is_none(),
            "atom {atom} already has a reduction in flight"
        );
    }

    /// Delivers one contribution; returns the completed sum when this was
    /// the last outstanding one.
    ///
    /// # Panics
    /// Panics if the atom was never armed — a protocol error equivalent
    /// to a fence packet at an unconfigured port.
    pub fn contribute(&mut self, atom: u64, force: ForceVec) -> Option<ForceVec> {
        let entry = self
            .pending
            .get_mut(&atom)
            .expect("contribution to unarmed atom");
        for (acc, f) in entry.0.iter_mut().zip(force) {
            *acc = acc.wrapping_add(f);
        }
        entry.1 -= 1;
        if entry.1 == 0 {
            let (sum, _) = self.pending.remove(&atom).expect("entry exists");
            Some(sum)
        } else {
            None
        }
    }

    /// Reductions still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// The reversed multicast tree: for each node in the position tree, which
/// direction its combined force return leaves on, and how many
/// contributions it must merge (its own plus one per child edge).
#[derive(Clone, Debug)]
pub struct ReductionPlan {
    /// `(node, expected contribution count)` per tree node, in a
    /// leaves-first order safe for sequential evaluation.
    pub merge_counts: Vec<(TorusCoord, u32)>,
    /// Channel crossings of the combined packets: `(from, toward-home)`
    /// edges, exactly the position tree's edges reversed.
    pub edges: Vec<(TorusCoord, TorusCoord)>,
}

/// Builds the reduction plan dual to the multicast tree of
/// `home -> dests` under `order`: contributions flow from every
/// destination back to `home`, merging at shared tree nodes.
pub fn reduction_plan(
    torus: &Torus,
    home: TorusCoord,
    dests: &[NodeId],
    order: DimOrder,
) -> ReductionPlan {
    // Rebuild the multicast tree structure: parent pointers.
    let mut parent: HashMap<TorusCoord, TorusCoord> = HashMap::new();
    let mut contributes: HashMap<TorusCoord, u32> = HashMap::new();
    for &dest in dests {
        let mut cur = home;
        for dir in torus.route(home, torus.coord(dest), order) {
            let next = torus.neighbor(cur, dir);
            parent.entry(next).or_insert(cur);
            cur = next;
        }
        // Each destination contributes its locally-computed force.
        *contributes.entry(torus.coord(dest)).or_insert(0) += 1;
    }
    // Children counts: merges at interior nodes.
    let mut children: HashMap<TorusCoord, u32> = HashMap::new();
    for (&child, &p) in &parent {
        let _ = child;
        *children.entry(p).or_insert(0) += 1;
    }
    // Order nodes leaves-first: sort by tree depth descending.
    let mut depth: HashMap<TorusCoord, u32> = HashMap::new();
    for &node in parent.keys() {
        let mut d = 0;
        let mut cur = node;
        while let Some(&p) = parent.get(&cur) {
            d += 1;
            cur = p;
        }
        depth.insert(node, d);
    }
    let mut nodes: Vec<TorusCoord> = parent.keys().copied().collect();
    nodes.sort_by_key(|n| {
        (std::cmp::Reverse(depth[n]), n.x, n.y, n.z) // deterministic
    });
    let merge_counts = nodes
        .iter()
        .map(|&n| {
            (
                n,
                contributes.get(&n).copied().unwrap_or(0) + children.get(&n).copied().unwrap_or(0),
            )
        })
        .collect();
    let edges = nodes.iter().map(|&n| (n, parent[&n])).collect();
    ReductionPlan {
        merge_counts,
        edges,
    }
}

impl ReductionPlan {
    /// Channel crossings the reduction uses — compare against one force
    /// packet per (atom, destination) without in-network reduction.
    pub fn crossings(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus() -> Torus {
        Torus::new([4, 4, 4])
    }

    #[test]
    fn node_sums_and_completes() {
        let mut n = ReductionNode::new();
        n.arm(7, 3);
        assert_eq!(n.contribute(7, [1, 2, 3]), None);
        assert_eq!(n.contribute(7, [10, -2, 0]), None);
        assert_eq!(n.contribute(7, [-1, 0, 7]), Some([10, 0, 10]));
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "unarmed atom")]
    fn unarmed_contribution_panics() {
        ReductionNode::new().contribute(1, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "already has a reduction")]
    fn double_arm_panics() {
        let mut n = ReductionNode::new();
        n.arm(1, 1);
        n.arm(1, 2);
    }

    #[test]
    fn plan_is_dual_to_multicast() {
        use anton_md_free::multicast_edge_count;
        let t = torus();
        let home = TorusCoord::new(0, 0, 0);
        let dests: Vec<NodeId> = (1..20u16).map(NodeId).collect();
        let plan = reduction_plan(&t, home, &dests, DimOrder::XYZ);
        // The reduction uses exactly the multicast tree's edge count.
        assert_eq!(plan.crossings(), multicast_edge_count(&t, home, &dests));
        // And strictly fewer crossings than per-destination unicast.
        let unicast: usize = dests
            .iter()
            .map(|&d| t.hop_distance(home, t.coord(d)) as usize)
            .sum();
        assert!(plan.crossings() < unicast);
    }

    /// Minimal reimplementation of the multicast edge count to avoid a
    /// dev-dependency cycle on anton-md.
    mod anton_md_free {
        use super::*;
        use std::collections::HashSet;

        pub fn multicast_edge_count(t: &Torus, home: TorusCoord, dests: &[NodeId]) -> usize {
            let mut seen: HashSet<(TorusCoord, TorusCoord)> = HashSet::new();
            for &dest in dests {
                let mut cur = home;
                for dir in t.route(home, t.coord(dest), DimOrder::XYZ) {
                    let next = t.neighbor(cur, dir);
                    seen.insert((cur, next));
                    cur = next;
                }
            }
            seen.len()
        }
    }

    #[test]
    fn full_tree_reduction_produces_exact_sum() {
        // Simulate the whole reduction: every destination contributes a
        // distinct force; merging along the plan must deliver the exact
        // total at home.
        let t = torus();
        let home = TorusCoord::new(1, 1, 1);
        let dests: Vec<NodeId> = (0..30u16)
            .map(NodeId)
            .filter(|n| t.coord(*n) != home)
            .collect();
        let plan = reduction_plan(&t, home, &dests, DimOrder::XYZ);

        // Contribution per destination: its node id as a force.
        let mut at_node: HashMap<TorusCoord, ForceVec> = HashMap::new();
        for &d in &dests {
            let c = t.coord(d);
            let f = [d.0 as i64, -(d.0 as i64), 1];
            let e = at_node.entry(c).or_insert([0; 3]);
            for k in 0..3 {
                e[k] += f[k];
            }
        }
        // Walk leaves-first: each node sends its accumulated value to its
        // parent.
        for (node, parent) in &plan.edges {
            let v = at_node.remove(node).unwrap_or([0; 3]);
            let e = at_node.entry(*parent).or_insert([0; 3]);
            for k in 0..3 {
                e[k] += v[k];
            }
        }
        let at_home = at_node.get(&home).copied().unwrap_or([0; 3]);
        let expect_x: i64 = dests.iter().map(|d| d.0 as i64).sum();
        assert_eq!(at_home, [expect_x, -expect_x, dests.len() as i64]);
    }

    #[test]
    fn merge_counts_cover_every_contribution() {
        let t = torus();
        let home = TorusCoord::new(0, 0, 0);
        let dests: Vec<NodeId> = vec![NodeId(1), NodeId(5), NodeId(21), NodeId(22)];
        let plan = reduction_plan(&t, home, &dests, DimOrder::XYZ);
        let total_expected: u32 = plan.merge_counts.iter().map(|(_, c)| c).sum();
        // Conservation: every destination contributes once at its node,
        // and every tree edge delivers one combined packet to its parent
        // — except the edges that terminate at home, which is not itself
        // a merge node in the plan.
        let edges_to_home = plan.edges.iter().filter(|(_, p)| *p == home).count();
        assert_eq!(
            total_expected as usize,
            dests.len() + plan.edges.len() - edges_to_home
        );
    }
}
