//! Work and wall-time counters of a solver run, surfaced as
//! [`crate::algorithm::SolverStats::perf`] and dumped by
//! `retimer bench-solve`.

/// Cheap counters describing the work of a solver run: constraint
/// checks, closure selections, learning and commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Constraint checks performed (one
    /// [`crate::verify::find_violations`] call per tentative move).
    pub checks: u64,
    /// Nanoseconds spent checking constraints.
    pub check_nanos: u64,
    /// Nanoseconds spent selecting max-gain closed sets.
    pub closure_nanos: u64,
    /// Closure selections performed.
    pub closure_calls: u64,
    /// Arcs examined by the warm closure engine of
    /// [`crate::closure_inc`]: network construction, tree repair,
    /// growth, augmentation and adoption.
    pub closure_arcs_touched: u64,
    /// Nanoseconds spent inside
    /// [`crate::closure_inc::IncrementalClosure::select`] (a subset of
    /// `closure_nanos`).
    pub closure_warm_nanos: u64,
    /// Nanoseconds spent certifying the engine's answers
    /// (`IncrementalClosure::select_certified` in [`crate::closure_inc`]): a
    /// subset of `closure_nanos` disjoint from `closure_warm_nanos`.
    pub certificate_nanos: u64,
    /// Always 0. It counted warm-closure selections skipped by a
    /// provably-unchanged-cut classifier, which the tree-reusing engine
    /// of [`crate::closure_inc`] replaced; the field stays so readers of
    /// the counter keep working.
    pub closure_skips: u64,
    /// Violations learned by batched attribution (every violation of a
    /// tentative move is attributed in one pass instead of
    /// rediscovering them one closure re-solve at a time).
    pub violations_batched: u64,
    /// Nanoseconds spent attributing violations and applying the
    /// resulting constraint requests (the learning phase).
    pub attribute_nanos: u64,
    /// Nanoseconds spent committing violation-free tentative moves.
    pub commit_nanos: u64,
    /// Bytes allocated cloning cached closure member lists — the one
    /// per-iteration allocation of the solver loop (the move-set alloc
    /// counter of the `--profile` breakdown).
    pub member_clone_bytes: u64,
}

impl PerfCounters {
    /// Mean arcs touched per closure selection.
    pub fn arcs_per_closure(&self) -> f64 {
        if self.closure_calls == 0 {
            return 0.0;
        }
        self.closure_arcs_touched as f64 / self.closure_calls as f64
    }
}
