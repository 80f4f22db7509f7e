//! `fio` — a fault-injectable filesystem shim and the sealed-file
//! envelope used by everything in the suite that persists state.
//!
//! The paper's whole pipeline quantifies resilience to bit flips, so
//! the suite's own persisted state (the serve daemon's cache, job
//! recovery files and solver checkpoints) must not silently trust a
//! disk. Two layers provide that:
//!
//! * **The shim** ([`write_atomic`], [`read_to_string`], …): every
//!   durable write in the daemon and the checkpoint sink goes through
//!   these functions instead of raw `std::fs`. With no [`FaultPlan`]
//!   installed they are plain passthroughs (one relaxed atomic load of
//!   overhead). With a plan installed through [`install`] — by tests,
//!   or by `retimer serve` from its `SABOTAGE_FIO_PLAN` environment
//!   variable — deterministic seeded faults are
//!   injected: `ENOSPC` on the Nth write, torn writes truncated at a
//!   seeded byte, kill-during-rename orphans leaving only `.tmp`
//!   files, bit-flip corruption of stored payloads, and `EIO` on
//!   reads.
//! * **The seal** ([`seal`] / [`unseal`]): a one-line header embedding
//!   the tagged FNV-1a content digest of the payload, written
//!   atomically with it. Readers re-hash and compare, so a torn or
//!   bit-flipped entry is *detected* rather than served — the caller
//!   quarantines it and recomputes.
//!
//! Fault decisions are per-category modulo counters (the Nth write of
//! that category faults); the *position* of a tear or bit flip is
//! seeded by the plan seed, the file name and the payload length, so
//! it is deterministic per entry regardless of scheduling order.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::digest::{content_digest, format_digest, parse_digest, Fnv1a};

/// A deterministic, seeded plan of filesystem faults. Each `*_every`
/// knob injects its fault on every Nth operation of that category
/// (independent counters); `None` disables the category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every tear offset and flip position.
    pub seed: u64,
    /// Fail every Nth atomic write with `ENOSPC`, leaving a partial
    /// `.tmp` orphan behind (the destination is untouched).
    pub enospc_every: Option<u64>,
    /// Tear every Nth atomic write: only a seeded prefix of the
    /// payload reaches the destination, but the write *reports
    /// success* (a lost flush after rename).
    pub tear_every: Option<u64>,
    /// Flip one seeded bit of the payload on every Nth atomic write
    /// (silent corruption; the write reports success).
    pub flip_every: Option<u64>,
    /// Simulate a kill between temp-write and rename on every Nth
    /// atomic write: the full `.tmp` file exists, the destination was
    /// never updated, and the write reports success.
    pub orphan_every: Option<u64>,
    /// Fail every Nth read with `EIO`.
    pub eio_read_every: Option<u64>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Parses a spec of comma-separated `key=value` pairs: `seed`
    /// (decimal or `0x` hex), `enospc`, `tear`, `flip`, `orphan`,
    /// `eio-read` (each a positive period).
    ///
    /// # Errors
    ///
    /// A message naming the first malformed pair.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` is not a key=value pair"))?;
            let parse_u64 = |v: &str| -> Result<u64, String> {
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed.map_err(|_| format!("`{v}` is not a number (key `{key}`)"))
            };
            let period = |v: &str| -> Result<Option<u64>, String> {
                let n = parse_u64(v)?;
                if n == 0 {
                    return Err(format!("key `{key}` needs a positive period"));
                }
                Ok(Some(n))
            };
            match key.trim() {
                "seed" => plan.seed = parse_u64(value)?,
                "enospc" => plan.enospc_every = period(value)?,
                "tear" => plan.tear_every = period(value)?,
                "flip" => plan.flip_every = period(value)?,
                "orphan" => plan.orphan_every = period(value)?,
                "eio-read" => plan.eio_read_every = period(value)?,
                other => {
                    return Err(format!(
                    "unknown fault key `{other}` (use seed, enospc, tear, flip, orphan, eio-read)"
                ))
                }
            }
        }
        Ok(plan)
    }

    fn any_enabled(&self) -> bool {
        self.enospc_every.is_some()
            || self.tear_every.is_some()
            || self.flip_every.is_some()
            || self.orphan_every.is_some()
            || self.eio_read_every.is_some()
    }
}

/// Counts of operations seen and faults injected since the last
/// [`reset_stats`] (or process start). Snapshot via [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FioStats {
    /// Atomic writes attempted through the shim.
    pub writes: u64,
    /// Reads attempted through the shim.
    pub reads: u64,
    /// `ENOSPC` failures injected.
    pub enospc_injected: u64,
    /// Torn writes injected.
    pub torn_injected: u64,
    /// Bit flips injected.
    pub flips_injected: u64,
    /// Kill-during-rename orphans injected.
    pub orphans_injected: u64,
    /// Read `EIO` failures injected.
    pub eio_injected: u64,
}

impl FioStats {
    /// Total faults injected across every category.
    pub fn total_injected(&self) -> u64 {
        self.enospc_injected
            + self.torn_injected
            + self.flips_injected
            + self.orphans_injected
            + self.eio_injected
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

static WRITES: AtomicU64 = AtomicU64::new(0);
static READS: AtomicU64 = AtomicU64::new(0);
static ENOSPC_INJECTED: AtomicU64 = AtomicU64::new(0);
static TORN_INJECTED: AtomicU64 = AtomicU64::new(0);
static FLIPS_INJECTED: AtomicU64 = AtomicU64::new(0);
static ORPHANS_INJECTED: AtomicU64 = AtomicU64::new(0);
static EIO_INJECTED: AtomicU64 = AtomicU64::new(0);

/// Installs a fault plan process-wide. Replaces any previous plan;
/// counters keep running (call [`reset_stats`] for a clean slate).
pub fn install(plan: FaultPlan) {
    *PLAN.lock().expect("fault plan poisoned") = Some(plan);
    ACTIVE.store(plan.any_enabled(), Ordering::SeqCst);
}

/// Removes any installed fault plan; the shim reverts to a pure
/// passthrough.
pub fn clear() {
    *PLAN.lock().expect("fault plan poisoned") = None;
    ACTIVE.store(false, Ordering::SeqCst);
}

/// A snapshot of the shim's operation and injection counters.
pub fn stats() -> FioStats {
    FioStats {
        writes: WRITES.load(Ordering::Relaxed),
        reads: READS.load(Ordering::Relaxed),
        enospc_injected: ENOSPC_INJECTED.load(Ordering::Relaxed),
        torn_injected: TORN_INJECTED.load(Ordering::Relaxed),
        flips_injected: FLIPS_INJECTED.load(Ordering::Relaxed),
        orphans_injected: ORPHANS_INJECTED.load(Ordering::Relaxed),
        eio_injected: EIO_INJECTED.load(Ordering::Relaxed),
    }
}

/// Zeroes every counter (tests isolate phases with this).
pub fn reset_stats() {
    for counter in [
        &WRITES,
        &READS,
        &ENOSPC_INJECTED,
        &TORN_INJECTED,
        &FLIPS_INJECTED,
        &ORPHANS_INJECTED,
        &EIO_INJECTED,
    ] {
        counter.store(0, Ordering::Relaxed);
    }
}

fn plan() -> Option<FaultPlan> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    *PLAN.lock().expect("fault plan poisoned")
}

/// Whether the Nth operation (0-based `n`) of a category with period
/// `every` faults: ops `every-1`, `2*every-1`, … do.
fn fires(n: u64, every: Option<u64>) -> bool {
    every.is_some_and(|e| (n + 1).is_multiple_of(e))
}

/// A seeded, order-independent position derived from the plan seed,
/// the file name and the payload length.
fn seeded_position(seed: u64, path: &Path, len: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    h.write_str(&path.file_name().unwrap_or_default().to_string_lossy());
    h.write_u64(len);
    h.finish()
}

/// The temp-file path used by [`write_atomic`]: the destination name
/// with `.tmp` appended (never an extension *replacement*, so
/// `key.bench.tmp` and `key.meta.tmp` cannot collide). Startup fsck
/// scans for this suffix.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `contents` to `path` atomically (temp file in the same
/// directory, then rename), through the fault plan if one is
/// installed.
///
/// # Errors
///
/// Real I/O failures, plus injected `ENOSPC` (which leaves a partial
/// `.tmp` orphan, exactly like a full disk would).
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = tmp_path(path);
    let Some(plan) = plan() else {
        fs::write(&tmp, contents)?;
        return fs::rename(&tmp, path);
    };

    let n = WRITES.fetch_add(1, Ordering::Relaxed);
    if fires(n, plan.enospc_every) {
        ENOSPC_INJECTED.fetch_add(1, Ordering::Relaxed);
        // A real ENOSPC typically lands mid-write: a partial temp file
        // stays behind for fsck to clean up.
        let keep = contents.len() / 2;
        let _ = fs::write(&tmp, &contents.as_bytes()[..keep]);
        return Err(io::Error::new(
            io::ErrorKind::StorageFull,
            format!("injected fault: ENOSPC writing {}", path.display()),
        ));
    }
    if fires(n, plan.orphan_every) {
        ORPHANS_INJECTED.fetch_add(1, Ordering::Relaxed);
        // Kill between temp-write and rename: the next process finds a
        // complete `.tmp` orphan and an unchanged destination. The
        // writer itself never learned of the kill, so report success.
        fs::write(&tmp, contents)?;
        return Ok(());
    }

    let mut bytes = contents.as_bytes().to_vec();
    if fires(n, plan.tear_every) && !bytes.is_empty() {
        TORN_INJECTED.fetch_add(1, Ordering::Relaxed);
        let keep = seeded_position(plan.seed, path, bytes.len() as u64) % bytes.len() as u64;
        bytes.truncate(keep as usize);
    } else if fires(n, plan.flip_every) && !bytes.is_empty() {
        FLIPS_INJECTED.fetch_add(1, Ordering::Relaxed);
        let bit = seeded_position(plan.seed, path, bytes.len() as u64) % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)
}

/// Reads a file to a string through the fault plan.
///
/// # Errors
///
/// Real I/O failures, plus injected `EIO`.
pub fn read_to_string(path: &Path) -> io::Result<String> {
    if let Some(plan) = plan() {
        let n = READS.fetch_add(1, Ordering::Relaxed);
        if fires(n, plan.eio_read_every) {
            EIO_INJECTED.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(format!(
                "injected fault: EIO reading {}",
                path.display()
            )));
        }
    }
    fs::read_to_string(path)
}

/// Removes a file (passthrough; counted so chaos tests can assert the
/// shim was actually on the path).
///
/// # Errors
///
/// Propagates `std::fs::remove_file` failures.
pub fn remove_file(path: &Path) -> io::Result<()> {
    fs::remove_file(path)
}

/// Renames a file (passthrough).
///
/// # Errors
///
/// Propagates `std::fs::rename` failures.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    fs::rename(from, to)
}

// ---------------------------------------------------------------------
// The sealed-file envelope
// ---------------------------------------------------------------------

/// The header prefix of a sealed file: `#%seal <tagged-digest>\n`
/// followed by the raw payload. `#` keeps sealed `.bench` payloads
/// readable by tools that treat `#` as a comment leader.
pub const SEAL_PREFIX: &str = "#%seal ";

/// Why [`unseal`] rejected a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// No `#%seal` header: a legacy or foreign file. Callers decide
    /// whether to accept it unverified or quarantine it.
    Missing,
    /// The header exists but its digest is malformed or carries a
    /// foreign version tag.
    Malformed(String),
    /// The payload does not hash to the sealed digest: the file was
    /// torn or corrupted after sealing.
    DigestMismatch {
        /// The digest the seal recorded.
        sealed: String,
        /// The digest the payload actually hashes to.
        actual: String,
    },
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Missing => write!(f, "no {SEAL_PREFIX:?} header"),
            SealError::Malformed(why) => write!(f, "malformed seal header: {why}"),
            SealError::DigestMismatch { sealed, actual } => write!(
                f,
                "payload hashes to {actual}, seal says {sealed} (torn or corrupted)"
            ),
        }
    }
}

/// Wraps a payload in the sealed envelope: one header line carrying
/// the tagged content digest, then the payload verbatim.
pub fn seal(payload: &str) -> String {
    format!(
        "{SEAL_PREFIX}{}\n{payload}",
        format_digest(content_digest(payload.as_bytes()))
    )
}

/// Verifies and strips the sealed envelope, returning the payload.
///
/// # Errors
///
/// [`SealError::Missing`] when there is no header (legacy file),
/// otherwise a description of the verification failure.
pub fn unseal(text: &str) -> Result<&str, SealError> {
    let Some(rest) = text.strip_prefix(SEAL_PREFIX) else {
        return Err(SealError::Missing);
    };
    let Some((digest_text, payload)) = rest.split_once('\n') else {
        return Err(SealError::Malformed("header line is unterminated".into()));
    };
    let sealed = parse_digest(digest_text.trim_end()).map_err(SealError::Malformed)?;
    let actual = content_digest(payload.as_bytes());
    if actual != sealed {
        return Err(SealError::DigestMismatch {
            sealed: format_digest(sealed),
            actual: format_digest(actual),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan-installing tests share this lock: the plan is process
    /// state, and the default parallel test harness must not let one
    /// test's faults leak into another's I/O.
    static PLAN_LOCK: Mutex<()> = Mutex::new(());

    struct PlanGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

    impl<'a> PlanGuard<'a> {
        fn install(plan: FaultPlan) -> Self {
            let guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            reset_stats();
            install(plan);
            Self(guard)
        }
    }

    impl Drop for PlanGuard<'_> {
        fn drop(&mut self) {
            clear();
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seal_round_trips_and_detects_corruption() {
        let sealed = seal("INPUT(a)\nOUTPUT(a)\n");
        assert_eq!(unseal(&sealed).unwrap(), "INPUT(a)\nOUTPUT(a)\n");

        // Any single bit flip in the payload is caught.
        let mut bytes = sealed.clone().into_bytes();
        let payload_start = sealed.find('\n').unwrap() + 1;
        for i in payload_start..bytes.len() {
            bytes[i] ^= 0x10;
            let tampered = String::from_utf8(bytes.clone()).unwrap();
            assert!(
                matches!(unseal(&tampered), Err(SealError::DigestMismatch { .. })),
                "flip at byte {i} not detected"
            );
            bytes[i] ^= 0x10;
        }

        // Truncation (a torn write) is caught.
        assert!(matches!(
            unseal(&sealed[..sealed.len() - 3]),
            Err(SealError::DigestMismatch { .. })
        ));
        // Legacy files are distinguishable from corrupt ones.
        assert_eq!(unseal("plain text"), Err(SealError::Missing));
        assert!(matches!(
            unseal("#%seal fnv9-v9:0000000000000000\nx"),
            Err(SealError::Malformed(_))
        ));
    }

    #[test]
    fn empty_payload_seals() {
        assert_eq!(unseal(&seal("")).unwrap(), "");
    }

    #[test]
    fn plan_spec_parses_and_rejects() {
        let plan = FaultPlan::parse("seed=0xBEEF, enospc=7,tear=11,flip=5,orphan=13").unwrap();
        assert_eq!(plan.seed, 0xBEEF);
        assert_eq!(plan.enospc_every, Some(7));
        assert_eq!(plan.tear_every, Some(11));
        assert_eq!(plan.flip_every, Some(5));
        assert_eq!(plan.orphan_every, Some(13));
        assert_eq!(plan.eio_read_every, None);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());

        assert!(FaultPlan::parse("bogus=1").unwrap_err().contains("bogus"));
        assert!(FaultPlan::parse("tear=0").unwrap_err().contains("positive"));
        assert!(FaultPlan::parse("seed").unwrap_err().contains("key=value"));
        assert!(FaultPlan::parse("flip=x").unwrap_err().contains("number"));
    }

    #[test]
    fn passthrough_without_a_plan() {
        let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        let dir = tmpdir("passthrough");
        let path = dir.join("entry.bench");
        write_atomic(&path, "hello").unwrap();
        assert_eq!(read_to_string(&path).unwrap(), "hello");
        assert!(!tmp_path(&path).exists(), "no tmp residue");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_fires_on_schedule_and_leaves_partial_tmp() {
        let dir = tmpdir("enospc");
        let path = dir.join("entry.bench");
        let mut plan = FaultPlan::new(1);
        plan.enospc_every = Some(3);
        let _guard = PlanGuard::install(plan);

        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        let err = write_atomic(&path, "three").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(err.to_string().contains("injected fault"));
        // Destination still holds the last good write; a partial tmp
        // orphan remains for fsck.
        assert_eq!(fs::read_to_string(&path).unwrap(), "two");
        assert!(tmp_path(&path).exists());
        assert_eq!(stats().enospc_injected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_leaves_tmp_and_stale_destination() {
        let dir = tmpdir("orphan");
        let path = dir.join("entry.bench");
        let mut plan = FaultPlan::new(2);
        plan.orphan_every = Some(2);
        let _guard = PlanGuard::install(plan);

        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap(); // orphaned
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        assert_eq!(fs::read_to_string(tmp_path(&path)).unwrap(), "second");
        assert_eq!(stats().orphans_injected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_flipped_writes_are_caught_by_the_seal() {
        let dir = tmpdir("tear-flip");
        let payload = seal(&"INPUT(a)\n".repeat(20));

        let mut plan = FaultPlan::new(42);
        plan.tear_every = Some(1);
        {
            let _guard = PlanGuard::install(plan);
            let path = dir.join("torn.bench");
            write_atomic(&path, &payload).unwrap(); // reports success
            let back = fs::read_to_string(&path).unwrap();
            assert!(back.len() < payload.len(), "write must actually tear");
            assert_ne!(unseal(&back).ok(), Some(payload.as_str()));
            assert_eq!(stats().torn_injected, 1);
        }

        let mut plan = FaultPlan::new(43);
        plan.flip_every = Some(1);
        {
            let _guard = PlanGuard::install(plan);
            let path = dir.join("flipped.bench");
            write_atomic(&path, &payload).unwrap();
            let back = fs::read_to_string(&path).unwrap();
            assert_eq!(back.len(), payload.len(), "a flip preserves length");
            assert_ne!(back, payload);
            assert!(unseal(&back).is_err(), "the seal must catch the flip");
            assert_eq!(stats().flips_injected, 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_positions_are_deterministic_per_entry() {
        let dir = tmpdir("determinism");
        let payload = "x".repeat(257);
        let mut plan = FaultPlan::new(7);
        plan.tear_every = Some(1);

        let read_back = |tag: &str| {
            let _guard = PlanGuard::install(plan);
            let path = dir.join(format!("{tag}.bench"));
            write_atomic(&path, &payload).unwrap();
            fs::read_to_string(&path).unwrap()
        };
        // Same file name, same payload → identical tear, run to run.
        assert_eq!(read_back("same"), read_back("same"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eio_read_fires_on_schedule() {
        let dir = tmpdir("eio");
        let path = dir.join("entry.bench");
        fs::write(&path, "content").unwrap();
        let mut plan = FaultPlan::new(5);
        plan.eio_read_every = Some(2);
        let _guard = PlanGuard::install(plan);

        assert_eq!(read_to_string(&path).unwrap(), "content");
        let err = read_to_string(&path).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(stats().eio_injected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_spec_installs_and_garbage_is_rejected() {
        // `retimer serve` parses its environment's plan with
        // `FaultPlan::parse`; exercise the parser instead of mutating
        // global env state under the parallel test harness.
        assert!(FaultPlan::parse("seed=9,flip=4").is_ok());
        assert!(FaultPlan::parse("flip=never").is_err());
    }
}
