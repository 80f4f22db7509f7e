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
    /// Closure selections performed (either closure engine).
    pub closure_calls: u64,
    /// Arcs examined by the closure engine (network construction,
    /// BFS/DFS phases, flow repair and cut extraction) — counted
    /// identically by the from-scratch and warm-started engines so the
    /// reuse ratio is directly comparable.
    pub closure_arcs_touched: u64,
    /// Warm-engine selections that fell back to a fresh network build
    /// because the delta batch dirtied more vertices than its
    /// `rebuild_percent` threshold allows.
    pub closure_fallback_full: u64,
    /// Nanoseconds the warm engine spent inside
    /// [`crate::closure_inc::IncrementalClosure::select`] (a subset of
    /// `closure_nanos`; 0 under the from-scratch engine).
    pub closure_warm_nanos: u64,
    /// Sampled divergence audits of the warm closure engine (each
    /// re-runs the from-scratch engine and compares bit-for-bit; see
    /// [`crate::supervisor`]).
    pub audit_checks: u64,
    /// Circuit-breaker trips: at most one for the warm closure engine
    /// (panic or audited divergence), plus one for a full-restart
    /// verification failure.
    pub breaker_trips: u64,
    /// Warm-closure selections answered by the provably-unchanged-cut
    /// fast path: the pending deltas were classified as unable to alter
    /// the min cut, so they were applied to the residual without a
    /// resume or re-extraction (see [`crate::closure_inc`]).
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
