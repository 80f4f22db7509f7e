//! Property tests over the result-cache key: any configuration change
//! that can alter the solve outcome must change the config
//! fingerprint, while identity fields (job id) must not.

use proptest::prelude::*;
use serve::job::{JobSpec, Method, NetlistFormat};
use serve::{config_fingerprint, ResultCache};

fn base_spec() -> JobSpec {
    JobSpec::new("base", "INPUT(a)\nOUTPUT(a)\n", NetlistFormat::Bench)
}

proptest! {
    /// Changing the iteration budget always changes the key.
    #[test]
    fn max_iters_always_changes_key(n in 1usize..1_000_000) {
        let base = base_spec();
        let mut changed = base.clone();
        changed.max_iters = Some(n);
        prop_assert_ne!(config_fingerprint(&changed), config_fingerprint(&base));
    }

    /// Changing the wall-clock budget always changes the key, and two
    /// distinct budgets never collide with each other.
    #[test]
    fn time_budget_always_changes_key(a in 1u32..100_000, b in 1u32..100_000) {
        let base = base_spec();
        let mut with_a = base.clone();
        with_a.time_budget = Some(f64::from(a) / 10.0);
        let mut with_b = base.clone();
        with_b.time_budget = Some(f64::from(b) / 10.0);
        prop_assert_ne!(config_fingerprint(&with_a), config_fingerprint(&base));
        if a != b {
            prop_assert_ne!(config_fingerprint(&with_a), config_fingerprint(&with_b));
        } else {
            prop_assert_eq!(config_fingerprint(&with_a), config_fingerprint(&with_b));
        }
    }

    /// Changing the `R_min` override always changes the key — even to
    /// values the §V derivation might have chosen anyway.
    #[test]
    fn r_min_always_changes_key(r in -1_000i64..1_000) {
        let base = base_spec();
        let mut changed = base.clone();
        changed.r_min = Some(r);
        prop_assert_ne!(config_fingerprint(&changed), config_fingerprint(&base));
    }

    /// The method and simulation shape are part of the key.
    #[test]
    fn solver_knobs_always_change_key(vectors in 64usize..8192, seed in 0u64..u64::MAX) {
        let base = base_spec();

        let mut method = base.clone();
        method.method = Method::MinObs;
        prop_assert_ne!(config_fingerprint(&method), config_fingerprint(&base));

        let mut sim = base.clone();
        sim.vectors = vectors;
        sim.seed = seed;
        if vectors != base.vectors || seed != base.seed {
            prop_assert_ne!(config_fingerprint(&sim), config_fingerprint(&base));
        }
    }

    /// The job id is excluded: the same circuit and config solved
    /// under any id shares one cache entry.
    #[test]
    fn id_never_changes_key(tag in 0u32..1_000_000) {
        let base = base_spec();
        let mut changed = base.clone();
        changed.id = format!("other-{tag}");
        prop_assert_eq!(config_fingerprint(&changed), config_fingerprint(&base));
    }

    /// The full result key separates distinct circuits even under an
    /// identical config fingerprint.
    #[test]
    fn result_key_separates_circuits(seed in 0u64..5_000) {
        let base = base_spec();
        let fp = config_fingerprint(&base);
        let a = ResultCache::netlist_key("INPUT(a)\nOUTPUT(a)\n");
        let b = ResultCache::netlist_key(&format!("INPUT(a)\nOUTPUT(a)\n# {seed}\n"));
        prop_assert_ne!(
            ResultCache::result_key(&a, fp),
            ResultCache::result_key(&b, fp)
        );
    }
}
