//! The **weighted regular forest** — the paper's §IV.B/§IV.C extension
//! of the regular forest of Wang & Zhou (DAC'08) with per-vertex
//! weights `w(v)` (the number of registers a vertex must move when its
//! tree fires).
//!
//! Each tree bundles vertices tied together by *active constraints*:
//! the edge between a non-root `v` and its parent `p_v` stores the
//! constraint `(v, p_v)` when `U(v)` is true and `(p_v, v)` otherwise
//! ("if the first decreases, the second must too"). A tree's gain is
//! `b(T) = Σ_{v∈T} b(v)·w(v)`; the union of positive trees is the move
//! set `I = V_P(F)` the algorithm tentatively decreases.
//!
//! Regularity (paper conditions 1–3) keeps only *justified* edges: in
//! a positive tree a subtree hangs by `U = true` only while its own
//! gain is positive (it pays for its parent), and by `U = false` only
//! while non-positive (it is a cost dragged along); dually for zero
//! and negative trees. Edges whose condition fails are cut — the
//! dropped constraint is rediscovered from a later violation check, so
//! this is always sound.

use retime::VertexId;

/// Sentinel-free frozen handling: a frozen vertex poisons every tree
/// that contains it (the tree can never be positive again) — used when
/// a violation's only fix would retime the host.
#[derive(Debug, Clone)]
pub struct WeightedRegularForest {
    b: Vec<i64>,
    weight: Vec<i64>,
    parent: Vec<Option<u32>>,
    children: Vec<Vec<u32>>,
    u_label: Vec<bool>,
    frozen: Vec<bool>,
}

/// Subtree summary used during normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubGain {
    gain: i64,
    has_frozen: bool,
}

impl SubGain {
    fn positive(self) -> bool {
        !self.has_frozen && self.gain > 0
    }
    fn non_negative(self) -> bool {
        !self.has_frozen && self.gain >= 0
    }
    fn non_positive(self) -> bool {
        self.has_frozen || self.gain <= 0
    }
    fn negative(self) -> bool {
        self.has_frozen || self.gain < 0
    }
}

impl WeightedRegularForest {
    /// Creates the initial forest: every vertex a singleton tree with
    /// weight 1 (the host, index 0, gets weight 0 and starts frozen so
    /// no tree containing it can ever fire).
    ///
    /// # Panics
    ///
    /// Panics if `b` is empty.
    pub fn new(b: Vec<i64>) -> Self {
        assert!(!b.is_empty(), "forest needs at least the host vertex");
        let n = b.len();
        let mut weight = vec![1i64; n];
        weight[0] = 0;
        let mut frozen = vec![false; n];
        frozen[0] = true;
        Self {
            b,
            weight,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            u_label: vec![false; n],
            frozen,
        }
    }

    /// Number of vertices (including the host).
    pub fn len(&self) -> usize {
        self.b.len()
    }

    /// Whether the forest is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.b.is_empty()
    }

    /// The planned decrease `w(v)` of a vertex.
    pub fn weight(&self, v: VertexId) -> i64 {
        self.weight[v.index()]
    }

    /// Whether `v` has been frozen.
    pub fn is_frozen(&self, v: VertexId) -> bool {
        self.frozen[v.index()]
    }

    /// Permanently freezes `v`: every tree containing it becomes
    /// non-positive. Used when `v`'s decrease has no legal fix.
    pub fn freeze(&mut self, v: VertexId) {
        self.frozen[v.index()] = true;
        // The tree may now violate regularity; re-normalize it.
        let root = self.find_root(v);
        self.normalize(root);
    }

    /// The root of `v`'s tree.
    pub fn find_root(&self, v: VertexId) -> VertexId {
        let mut cur = v.index();
        while let Some(p) = self.parent[cur] {
            cur = p as usize;
        }
        VertexId::new(cur)
    }

    /// Whether `a` and `b` are currently in the same tree.
    pub fn same_tree(&self, a: VertexId, b: VertexId) -> bool {
        self.find_root(a) == self.find_root(b)
    }

    /// Members of `v`'s tree.
    pub fn tree_members(&self, v: VertexId) -> Vec<VertexId> {
        let root = self.find_root(v);
        let mut out = Vec::new();
        let mut stack = vec![root.index()];
        while let Some(x) = stack.pop() {
            out.push(VertexId::new(x));
            stack.extend(self.children[x].iter().map(|&c| c as usize));
        }
        out
    }

    /// The tree gain `b(T) = Σ b(v)·w(v)` of `v`'s tree (`None` when a
    /// frozen member poisons it).
    pub fn tree_gain(&self, v: VertexId) -> Option<i64> {
        let mut gain = 0i64;
        for m in self.tree_members(v) {
            if self.frozen[m.index()] {
                return None;
            }
            gain += self.b[m.index()] * self.weight[m.index()];
        }
        Some(gain)
    }

    /// `V_P(F)`: all vertices of positive trees — the tentative move
    /// set `I`.
    pub fn positive_set(&self) -> Vec<VertexId> {
        let mut out = Vec::new();
        for root in 0..self.len() {
            if self.parent[root].is_some() {
                continue;
            }
            let members = self.tree_members(VertexId::new(root));
            let mut gain = 0i64;
            let mut has_frozen = false;
            for &m in &members {
                if self.frozen[m.index()] {
                    has_frozen = true;
                    break;
                }
                gain += self.b[m.index()] * self.weight[m.index()];
            }
            if !has_frozen && gain > 0 {
                out.extend(members);
            }
        }
        out
    }

    /// Sets the weight of a vertex that is currently a singleton tree
    /// (the only situation in which a weight may change without
    /// invalidating recorded constraints — paper §IV.C).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a singleton, the weight is not positive, or
    /// `v` is the host.
    pub fn set_weight(&mut self, v: VertexId, w: i64) {
        assert!(v.index() != 0, "host weight is fixed at 0");
        assert!(w >= 1, "weights are positive register counts");
        assert!(
            self.parent[v.index()].is_none() && self.children[v.index()].is_empty(),
            "weight may only change while {v} is a singleton tree"
        );
        self.weight[v.index()] = w;
    }

    /// `BreakTree(q)` (paper §IV.C): re-roots `q`'s tree at `q`, then
    /// detaches `q` from all of its children, leaving `q` a singleton
    /// and every former neighbour subtree its own (re-normalized) tree.
    pub fn break_tree(&mut self, q: VertexId) {
        self.reroot(q);
        let children = std::mem::take(&mut self.children[q.index()]);
        for c in &children {
            self.parent[*c as usize] = None;
        }
        for c in children {
            self.normalize(VertexId::new(c as usize));
        }
    }

    /// `UpdateForest(F, p, q, w)`: records the active constraint
    /// `(p → q)` ("p's decrease drags q by w registers"). When `w`
    /// differs from `q`'s current weight, `q` is broken out first; the
    /// resulting tree is re-normalized.
    ///
    /// Returns `false` (a no-op) when `p == q` or when the link would
    /// create no structural change (callers treat that as "freeze `p`
    /// instead" to guarantee progress).
    ///
    /// # Panics
    ///
    /// Panics if `q` is the host (freeze `p` instead) or `w < 1`.
    pub fn update(&mut self, p: VertexId, q: VertexId, w: i64) -> bool {
        assert!(
            q.index() != 0,
            "constraints against the host freeze the tree instead"
        );
        assert!(w >= 1, "weights are positive register counts");
        if p == q {
            return false;
        }
        if self.weight[q.index()] != w {
            self.break_tree(q);
            self.set_weight(q, w);
        } else if self.same_tree(p, q) {
            // Same tree, same weight: the constraint is already
            // represented; no structural change is possible.
            return false;
        } else {
            self.reroot(q);
        }
        // After break_tree/reroot q is a root; attach under p with
        // U(q) = false, i.e. the stored constraint is (parent, q) = (p, q).
        debug_assert!(self.parent[q.index()].is_none());
        debug_assert!(!self.same_tree(p, q));
        self.parent[q.index()] = Some(p.index() as u32);
        self.children[p.index()].push(q.index() as u32);
        self.u_label[q.index()] = false;
        let root = self.find_root(p);
        self.normalize(root);
        true
    }

    /// Re-roots `v`'s tree at `v`, flipping the stored `U` labels so
    /// every recorded constraint keeps its direction.
    fn reroot(&mut self, v: VertexId) {
        // Collect the path v -> old root.
        let mut path = vec![v.index()];
        let mut cur = v.index();
        while let Some(p) = self.parent[cur] {
            path.push(p as usize);
            cur = p as usize;
        }
        // Reverse each edge on the path, from v upward.
        for i in 0..path.len() - 1 {
            let child = path[i];
            let par = path[i + 1];
            // Remove child from par's children.
            self.children[par].retain(|&c| c as usize != child);
            // par becomes child of `child`.
            self.children[child].push(par as u32);
            self.parent[par] = Some(child as u32);
            // The constraint stored at `child` (about edge child—par)
            // moves to `par` with flipped direction.
            self.u_label[par] = !self.u_label[child];
        }
        self.parent[v.index()] = None;
    }

    /// Restores regularity in the tree rooted at `root`: computes
    /// subtree gains and cuts every edge whose paper-condition fails,
    /// cascading into the cut-off subtrees.
    fn normalize(&mut self, root: VertexId) {
        let mut work = vec![root];
        while let Some(r) = work.pop() {
            let r = self.find_root(r); // may have been re-parented meanwhile
            loop {
                let cut = self.find_irregular(r);
                match cut {
                    None => break,
                    Some(v) => {
                        let p = self.parent[v.index()].expect("non-root") as usize;
                        self.children[p].retain(|&c| c as usize != v.index());
                        self.parent[v.index()] = None;
                        work.push(v);
                    }
                }
            }
        }
    }

    /// Finds a non-root vertex of `root`'s tree violating the
    /// regularity condition for the tree's gain class.
    fn find_irregular(&self, root: VertexId) -> Option<VertexId> {
        // Compute subtree gains bottom-up with an explicit stack.
        let mut order = Vec::new();
        let mut stack = vec![root.index()];
        while let Some(x) = stack.pop() {
            order.push(x);
            stack.extend(self.children[x].iter().map(|&c| c as usize));
        }
        let mut sub: Vec<SubGain> = vec![
            SubGain {
                gain: 0,
                has_frozen: false
            };
            self.len()
        ];
        for &x in order.iter().rev() {
            let mut g = SubGain {
                gain: self.b[x] * self.weight[x],
                has_frozen: self.frozen[x],
            };
            for &c in &self.children[x] {
                let cg = sub[c as usize];
                g.gain += cg.gain;
                g.has_frozen |= cg.has_frozen;
            }
            sub[x] = g;
        }
        let tree = sub[root.index()];
        for &x in &order {
            if x == root.index() {
                continue;
            }
            let u = self.u_label[x];
            let bx = sub[x];
            let ok = if tree.positive() {
                // b(T) > 0: (U ∧ B > 0) ∨ (¬U ∧ B ≤ 0)
                (u && bx.positive()) || (!u && bx.non_positive())
            } else if !tree.has_frozen && tree.gain == 0 {
                // b(T) = 0: (U ∧ B > 0) ∨ (¬U ∧ B < 0)
                (u && bx.positive()) || (!u && bx.negative())
            } else {
                // b(T) < 0 (or frozen): (U ∧ B ≥ 0) ∨ (¬U ∧ B < 0)
                (u && bx.non_negative()) || (!u && bx.negative())
            };
            if !ok {
                return Some(VertexId::new(x));
            }
        }
        None
    }

    /// Diagnostic: number of active constraints currently recorded
    /// (edges of the forest). Bounded by `|V| − 1`.
    pub fn num_constraints(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }

    /// Verifies the structural invariants (acyclicity, parent/child
    /// symmetry, regularity of every tree). Test helper; `O(|V|²)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        for v in 0..self.len() {
            if let Some(p) = self.parent[v] {
                if !self.children[p as usize].contains(&(v as u32)) {
                    return Err(format!("parent/child asymmetry at {v}"));
                }
            }
            for &c in &self.children[v] {
                if self.parent[c as usize] != Some(v as u32) {
                    return Err(format!("child {c} of {v} disagrees"));
                }
            }
            // Walk to the root; cycles would spin forever, so bound it.
            let mut cur = v;
            for _ in 0..=self.len() {
                match self.parent[cur] {
                    Some(p) => cur = p as usize,
                    None => break,
                }
            }
            if self.parent[cur].is_some() {
                return Err(format!("cycle through {v}"));
            }
        }
        for root in 0..self.len() {
            if self.parent[root].is_none() {
                if let Some(bad) = self.find_irregular(VertexId::new(root)) {
                    return Err(format!("tree rooted at {root} irregular at {bad}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn initial_forest_is_singletons() {
        let f = WeightedRegularForest::new(vec![0, 5, -3, 2]);
        assert_eq!(f.num_constraints(), 0);
        let pos = f.positive_set();
        assert_eq!(pos, vec![v(1), v(3)]);
        f.check_invariants().unwrap();
    }

    #[test]
    fn host_never_positive() {
        let f = WeightedRegularForest::new(vec![100, -1]);
        assert!(f.positive_set().is_empty());
    }

    #[test]
    fn link_negative_into_positive_keeps_positive() {
        let mut f = WeightedRegularForest::new(vec![0, 5, -3]);
        assert!(f.update(v(1), v(2), 1));
        // Tree gain 5 - 3 = 2 > 0: both fire.
        let mut pos = f.positive_set();
        pos.sort();
        assert_eq!(pos, vec![v(1), v(2)]);
        f.check_invariants().unwrap();
    }

    #[test]
    fn link_that_kills_gain_removes_tree_from_positive_set() {
        let mut f = WeightedRegularForest::new(vec![0, 5, -9]);
        assert!(f.update(v(1), v(2), 1));
        assert!(f.positive_set().is_empty(), "gain 5 - 9 < 0");
        f.check_invariants().unwrap();
    }

    #[test]
    fn weighted_cost_counts_multiplied() {
        // b = [., 5, -2], but q must move 3 registers: cost 6 > 5.
        let mut f = WeightedRegularForest::new(vec![0, 5, -2]);
        assert!(f.update(v(1), v(2), 3));
        assert_eq!(f.weight(v(2)), 3);
        assert!(f.positive_set().is_empty());
        f.check_invariants().unwrap();
    }

    #[test]
    fn update_existing_member_requires_break() {
        // Chain: 1 <- 2 (w1), then 2 needs weight 2: BreakTree splits
        // and relinks with the new weight.
        let mut f = WeightedRegularForest::new(vec![0, 5, -2, 4]);
        assert!(f.update(v(1), v(2), 1));
        assert!(f.update(v(3), v(2), 2));
        assert_eq!(f.weight(v(2)), 2);
        assert!(f.same_tree(v(3), v(2)));
        f.check_invariants().unwrap();
    }

    #[test]
    fn freeze_poisons_tree() {
        let mut f = WeightedRegularForest::new(vec![0, 5, -1]);
        f.update(v(1), v(2), 1);
        assert!(!f.positive_set().is_empty());
        f.freeze(v(1));
        assert!(f.positive_set().is_empty());
        assert!(f.is_frozen(v(1)));
        f.check_invariants().unwrap();
    }

    #[test]
    fn break_tree_leaves_singleton() {
        let mut f = WeightedRegularForest::new(vec![0, 5, -1, -1]);
        f.update(v(1), v(2), 1);
        f.update(v(1), v(3), 1);
        f.break_tree(v(1));
        assert_eq!(f.tree_members(v(1)), vec![v(1)]);
        f.check_invariants().unwrap();
    }

    #[test]
    fn reroot_preserves_membership() {
        let mut f = WeightedRegularForest::new(vec![0, 5, -1, -1, -1]);
        f.update(v(1), v(2), 1);
        f.update(v(2), v(3), 1);
        f.update(v(3), v(4), 1);
        let before: std::collections::BTreeSet<_> = f.tree_members(v(1)).into_iter().collect();
        // Linking someone new to a deep member forces a reroot path.
        let mut f2 = f.clone();
        f2.break_tree(v(4));
        let after: std::collections::BTreeSet<_> = f2.tree_members(v(1)).into_iter().collect();
        assert!(after.contains(&v(1)));
        assert!(!after.contains(&v(4)), "v4 broke out");
        assert!(before.contains(&v(4)));
        f2.check_invariants().unwrap();
    }

    #[test]
    fn same_tree_same_weight_is_noop() {
        let mut f = WeightedRegularForest::new(vec![0, 5, -1]);
        assert!(f.update(v(1), v(2), 1));
        assert!(!f.update(v(1), v(2), 1), "no structural change possible");
    }

    #[test]
    fn self_link_is_noop() {
        let mut f = WeightedRegularForest::new(vec![0, 5]);
        assert!(!f.update(v(1), v(1), 1));
    }

    #[test]
    #[should_panic(expected = "host")]
    fn linking_host_panics() {
        let mut f = WeightedRegularForest::new(vec![0, 5]);
        f.update(v(1), v(0), 1);
    }

    #[test]
    fn constraint_count_bounded() {
        let n = 20;
        let mut b = vec![0i64; n];
        for (i, item) in b.iter_mut().enumerate().skip(1) {
            *item = if i % 2 == 0 { 3 } else { -1 };
        }
        let mut f = WeightedRegularForest::new(b);
        let mut rng = netlist::rng::Xoshiro256::seed_from_u64(5);
        for _ in 0..200 {
            let p = 1 + rng.gen_range(n - 1);
            let q = 1 + rng.gen_range(n - 1);
            if p == q {
                continue;
            }
            let w = 1 + rng.gen_range(3) as i64;
            f.update(v(p), v(q), w);
            assert!(f.num_constraints() < n);
            f.check_invariants().unwrap();
        }
    }

    #[test]
    fn positive_set_is_union_of_positive_trees() {
        let mut f = WeightedRegularForest::new(vec![0, 4, -1, 7, -20]);
        f.update(v(1), v(2), 1); // gain 3 tree
        f.update(v(3), v(4), 1); // gain -13 tree... normalization may cut it
        let pos: std::collections::BTreeSet<_> = f.positive_set().into_iter().collect();
        // v1's tree positive; v3 either alone (if cut) or suppressed.
        assert!(pos.contains(&v(1)));
        for x in &pos {
            let g = f.tree_gain(*x).expect("unfrozen");
            assert!(g > 0, "{x} in positive set but tree gain {g}");
        }
        f.check_invariants().unwrap();
    }
}
