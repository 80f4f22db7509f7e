//! # bench_harness — reproduction harness for the paper's evaluation
//!
//! Everything needed to regenerate the paper's Table I and the figure
//! phenomena: synthetic twins of the 21 ISCAS89/ITC99 circuits, the
//! per-circuit experiment runner (from the `minobswin` crate), table
//! formatting and summary statistics.
//!
//! Run the headline experiment with:
//!
//! ```text
//! cargo run -p minobswin-bench --release --bin table1 -- --scale 16
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ser_bench;
pub mod solver_bench;
pub mod table1;

pub use table1::{format_table, run_table1, summarize, Table1Options, Table1Row, Table1Summary};

/// Display label for a generated-circuit size: exact multiples of 1000
/// read as `10k`-style suffixes (the tier names CI gates on), anything
/// else as the raw count. `generated_instance` names derive from this,
/// so the committed `BENCH_*.json` baselines and the CI diff scripts
/// agree on one spelling.
pub fn gates_label(gates: usize) -> String {
    if gates >= 1000 && gates.is_multiple_of(1000) {
        format!("{}k", gates / 1000)
    } else {
        gates.to_string()
    }
}

/// Resolves a named benchmark size tier to its generated gate counts.
/// `small` keeps the subcommand's historical default list (passed in by
/// the caller); `large` is the CI-gated 10k-gate tier and `xlarge` the
/// 50k-gate stress tier.
///
/// # Errors
///
/// An unknown tier name, echoed with the accepted spellings.
pub fn tier_gates(tier: &str, small: Vec<usize>) -> Result<Vec<usize>, String> {
    match tier {
        "small" => Ok(small),
        "large" | "10k" => Ok(vec![10_000]),
        "xlarge" | "50k" => Ok(vec![50_000]),
        other => Err(format!(
            "unknown tier `{other}` (use small, large/10k or xlarge/50k)"
        )),
    }
}

/// Serializes the unit tests that run a SER engine. The SER bench
/// reads the process-wide `ser_engine::signature_allocs` counter, so an
/// engine running on another test thread would leak its allocations
/// into a measured delta. The lock guards no data, so a test that
/// panicked while holding it leaves nothing to repair.
#[cfg(test)]
pub(crate) fn ser_engine_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tier_tests {
    use super::*;

    #[test]
    fn labels_use_k_suffix_for_round_thousands() {
        assert_eq!(gates_label(300), "300");
        assert_eq!(gates_label(1500), "1500");
        assert_eq!(gates_label(1000), "1k");
        assert_eq!(gates_label(10_000), "10k");
        assert_eq!(gates_label(50_000), "50k");
    }

    #[test]
    fn tiers_resolve_gate_lists() {
        assert_eq!(tier_gates("small", vec![300]).unwrap(), vec![300]);
        assert_eq!(tier_gates("large", vec![300]).unwrap(), vec![10_000]);
        assert_eq!(tier_gates("10k", vec![]).unwrap(), vec![10_000]);
        assert_eq!(tier_gates("xlarge", vec![]).unwrap(), vec![50_000]);
        assert!(tier_gates("mega", vec![]).is_err());
    }
}
