//! Shared worker-count resolution for every threaded stage in the
//! suite.
//!
//! `faultsim` campaigns, the SER engine's exact fault injection, the
//! serve daemon's solve pool and the `table1` per-circuit pool all
//! spawn worker threads. They must agree on how a thread count is
//! chosen, so the rule lives here once:
//!
//! 1. an explicit request (`--threads N` flag, `SimConfig::threads`,
//!    `CampaignConfig::workers`) wins when non-zero,
//! 2. otherwise the [`THREADS_ENV`] (`SER_THREADS`) environment
//!    variable, when set to a positive integer,
//! 3. otherwise [`std::thread::available_parallelism`].
//!
//! The resolved count is then clamped to the number of independent
//! work items by [`clamp_workers`] — spawning more threads than there
//! is work only adds scheduling noise.

/// Environment variable consulted when no explicit thread count is
/// requested (`SER_THREADS=4 retimer ...`).
pub const THREADS_ENV: &str = "SER_THREADS";

/// Classifies a thread-count spec (the [`THREADS_ENV`] value or a
/// `--threads` argument): `Ok(n)` for a positive integer, `Err` with a
/// human-readable reason for `0`, garbage, or an unparseable number.
/// Exposed so every front-end rejects (or warns about) bad specs with
/// the same wording.
///
/// # Errors
///
/// A description of why the spec is not a positive worker count.
pub fn parse_thread_spec(spec: &str) -> Result<usize, String> {
    match spec.trim().parse::<usize>() {
        Ok(0) => Err("0 is not a positive worker count".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("`{}` is not a positive integer", spec.trim())),
    }
}

/// Resolves a worker count: explicit `requested` (non-zero) beats the
/// [`THREADS_ENV`] environment variable, which beats
/// [`std::thread::available_parallelism`]. Always returns ≥ 1.
///
/// A set-but-invalid [`THREADS_ENV`] (zero, garbage, out of range) is
/// **not** silently ignored: a structured warning naming the rejected
/// value and the worker count actually resolved is printed to stderr,
/// once per process.
///
/// # Examples
///
/// ```
/// use netlist::parallel::resolve_workers;
/// assert_eq!(resolve_workers(3), 3); // explicit request wins
/// assert!(resolve_workers(0) >= 1); // env var or hardware fallback
/// ```
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let hardware = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var(THREADS_ENV) {
        Ok(v) => match parse_thread_spec(&v) {
            Ok(n) => n,
            Err(reason) => {
                let resolved = hardware();
                warn_bad_env_once(&v, &reason, resolved);
                resolved
            }
        },
        Err(_) => hardware(),
    }
}

/// Prints the bad-[`THREADS_ENV`] warning once per process. Every
/// threaded stage calls [`resolve_workers`]; repeating the warning per
/// stage would drown the diagnostic it carries.
fn warn_bad_env_once(value: &str, reason: &str, resolved: usize) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "warning: ignoring {THREADS_ENV}=\"{value}\": {reason} \
             [resolved_workers={resolved} source=hardware]"
        );
    });
}

/// Clamps a resolved worker count to the number of independent work
/// items. Always returns ≥ 1, even for zero items.
///
/// # Examples
///
/// ```
/// use netlist::parallel::clamp_workers;
/// assert_eq!(clamp_workers(8, 3), 3);
/// assert_eq!(clamp_workers(2, 100), 2);
/// assert_eq!(clamp_workers(4, 0), 1);
/// ```
pub fn clamp_workers(workers: usize, work_items: usize) -> usize {
    workers.max(1).min(work_items.max(1))
}

/// [`resolve_workers`] followed by [`clamp_workers`] — the common case.
pub fn resolve_workers_for(requested: usize, work_items: usize) -> usize {
    clamp_workers(resolve_workers(requested), work_items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_workers(7), 7);
        assert_eq!(resolve_workers(1), 1);
    }

    #[test]
    fn zero_request_falls_back_to_at_least_one() {
        // The env var may or may not be set in the test environment;
        // either way the result must be positive.
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp_workers(0, 10), 1);
        assert_eq!(clamp_workers(16, 4), 4);
        assert_eq!(clamp_workers(3, 3), 3);
        assert_eq!(clamp_workers(5, 0), 1);
    }

    #[test]
    fn resolve_for_combines() {
        assert_eq!(resolve_workers_for(8, 2), 2);
        assert_eq!(resolve_workers_for(2, 8), 2);
    }

    #[test]
    fn thread_spec_classification() {
        assert_eq!(parse_thread_spec("4"), Ok(4));
        assert_eq!(parse_thread_spec(" 2 "), Ok(2));
        assert!(parse_thread_spec("0").unwrap_err().contains("0"));
        assert!(parse_thread_spec("abc").unwrap_err().contains("abc"));
        assert!(parse_thread_spec("-3").unwrap_err().contains("-3"));
        assert!(parse_thread_spec("").is_err());
    }
}
