//! File-based work leases for multi-process campaign sharding.
//!
//! Worker processes coordinating over a shared filesystem claim units of
//! work — in practice `(cell, wave)` pairs of an adaptive campaign — by
//! atomically creating a lease file with `O_EXCL` next to the experiment's
//! manifest. A lease is *advisory and safety-free*: trials are
//! deterministic functions of their seed and the manifest merge dedups by
//! seed, so even a duplicated claim (two workers racing a stale-lease
//! break) only costs duplicated compute, never a wrong result. Leases
//! exist purely to keep workers off each other's waves.
//!
//! Liveness across `kill -9`: a held lease is refreshed (mtime heartbeat)
//! by a background thread every quarter TTL. A lease whose mtime is older
//! than the TTL belonged to a dead worker; a claimant breaks it by
//! *renaming* it to a unique tombstone first — the rename is atomic, so of
//! several workers spotting the same stale lease exactly one wins the
//! break and proceeds to re-create the lease file.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A directory of lease files shared by the workers of one campaign.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    dir: PathBuf,
    owner: String,
    ttl: Duration,
}

impl LeaseDir {
    /// Leases live in `dir` (created if needed); `owner` names this worker
    /// in lease-file contents (diagnostics only); a lease whose heartbeat
    /// is older than `ttl` is considered abandoned and may be broken.
    pub fn new(
        dir: impl Into<PathBuf>,
        owner: impl Into<String>,
        ttl: Duration,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(LeaseDir { dir, owner: owner.into(), ttl })
    }

    /// The directory holding the lease files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lease_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lease"))
    }

    /// Try to claim the lease named `key` (letters/digits/`-`/`_` only —
    /// callers digest free-form cell labels first). Returns the held lease
    /// on success, `None` if another live worker holds it. A lease whose
    /// mtime heartbeat has expired is broken (atomically, via rename) and
    /// re-claimed.
    ///
    /// The lease file holds a token unique to this claim, so the holder
    /// heartbeats and releases only its own file — never a rival's lease
    /// re-created at the same path after this one was broken as stale.
    pub fn try_claim(&self, key: &str) -> io::Result<Option<Lease>> {
        static CLAIMS: AtomicU64 = AtomicU64::new(0);
        let path = self.lease_path(key);
        for attempt in 0..2 {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let nanos = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map_or(0, |d| d.as_nanos());
                    let n = CLAIMS.fetch_add(1, Ordering::Relaxed);
                    let token = format!("{} {} {n} {nanos}\n", self.owner, std::process::id());
                    if let Err(e) = f.write_all(token.as_bytes()) {
                        let _ = fs::remove_file(&path);
                        return Err(e);
                    }
                    return Ok(Some(Lease::held(path, token, self.ttl)));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if attempt > 0 || !self.break_if_stale(&path)? {
                        return Ok(None);
                    }
                    // Stale lease broken: one more create attempt. If a
                    // rival won the re-create race we yield to them.
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// If the lease file at `path` has not been heartbeat within the TTL,
    /// break it and return `true`. The break renames to a unique tombstone
    /// before deleting, so concurrent breakers cannot delete a lease that
    /// a rival already re-created.
    fn break_if_stale(&self, path: &Path) -> io::Result<bool> {
        let age = match fs::metadata(path).and_then(|m| m.modified()) {
            Ok(modified) => modified.elapsed().unwrap_or(Duration::ZERO),
            // Vanished between the failed create and the stat: the holder
            // released it; let the caller retry the create.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(true),
            Err(e) => return Err(e),
        };
        if age <= self.ttl {
            return Ok(false);
        }
        static TOMBSTONE: AtomicU64 = AtomicU64::new(0);
        let n = TOMBSTONE.fetch_add(1, Ordering::Relaxed);
        let tomb = path.with_extension(format!("stale.{}.{n}", std::process::id()));
        match fs::rename(path, &tomb) {
            Ok(()) => {
                let _ = fs::remove_file(&tomb);
                Ok(true)
            }
            // Lost the break race (or the holder woke up); not ours.
            Err(_) => Ok(false),
        }
    }
}

/// A held lease. Heartbeats (mtime refreshes) run on a background thread
/// every quarter TTL until the lease is dropped; dropping releases the
/// lease by deleting its file. Both touch the file only while it still
/// holds this claim's token.
pub struct Lease {
    path: PathBuf,
    token: String,
    stop: Option<mpsc::Sender<()>>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

/// Whether the lease file at `path` still holds `token`.
fn holds(path: &Path, token: &str) -> bool {
    fs::read_to_string(path).is_ok_and(|held| held == token)
}

impl Lease {
    fn held(path: PathBuf, token: String, ttl: Duration) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let (beat_path, beat_token) = (path.clone(), token.clone());
        let interval = (ttl / 4).max(Duration::from_millis(10));
        let heartbeat = std::thread::spawn(move || {
            // recv_timeout doubles as the sleep: a send — or the sender
            // dropping, which surfaces as Disconnected — ends the loop
            // immediately instead of after a full interval.
            while matches!(stopped.recv_timeout(interval), Err(mpsc::RecvTimeoutError::Timeout)) {
                // A lease broken as stale (gone, or re-created by a rival)
                // is no longer ours: stop beating.
                if !holds(&beat_path, &beat_token) {
                    break;
                }
                if let Ok(f) = fs::OpenOptions::new().write(true).open(&beat_path) {
                    let _ = f.set_modified(std::time::SystemTime::now());
                }
            }
        });
        Lease { path, token, stop: Some(stop), heartbeat: Some(heartbeat) }
    }

    /// Where the lease file lives (tests inspect it).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        if holds(&self.path, &self.token) {
            let _ = fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sefi_lease_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn claim_is_exclusive_and_release_reopens() {
        let dir = scratch("excl");
        let a = LeaseDir::new(&dir, "a", Duration::from_secs(60)).unwrap();
        let b = LeaseDir::new(&dir, "b", Duration::from_secs(60)).unwrap();
        let held = a.try_claim("cell0-w0").unwrap().expect("first claim succeeds");
        assert!(b.try_claim("cell0-w0").unwrap().is_none(), "live lease must exclude rivals");
        assert!(b.try_claim("cell0-w1").unwrap().is_some(), "other keys are independent");
        drop(held);
        assert!(b.try_claim("cell0-w0").unwrap().is_some(), "released lease is claimable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_is_broken_after_ttl() {
        let dir = scratch("stale");
        // A dead worker's lease: the file exists but nothing heartbeats it.
        fs::write(dir.join("cell1-w0.lease"), "dead-worker\n").unwrap();
        let fast = LeaseDir::new(&dir, "alive", Duration::from_millis(30)).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert!(fast.try_claim("cell1-w0").unwrap().is_some(), "expired lease must be broken");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_broken_lease_leaves_the_rivals_lease_in_place() {
        let dir = scratch("token");
        // Same owner string on both sides, as two workers of one process.
        let ttl = Duration::from_secs(60);
        let first = LeaseDir::new(&dir, "pid", ttl).unwrap();
        let second = LeaseDir::new(&dir, "pid", ttl).unwrap();
        let mut broken = first.try_claim("cell3-w0").unwrap().expect("claim");
        // The holder stalls past its TTL: its heartbeat stops and the file
        // ages, so a rival breaks the lease and re-claims the same path.
        drop(broken.stop.take());
        let long_ago = std::time::SystemTime::now() - Duration::from_secs(3600);
        fs::File::options()
            .write(true)
            .open(broken.path())
            .unwrap()
            .set_modified(long_ago)
            .unwrap();
        let rival = second.try_claim("cell3-w0").unwrap().expect("stale lease is broken");
        drop(broken);
        assert!(rival.path().exists(), "the broken holder deleted its rival's lease");
        assert!(first.try_claim("cell3-w0").unwrap().is_none(), "rival's lease must still exclude");
        drop(rival);
        assert!(!dir.join("cell3-w0.lease").exists(), "the holder releases its own lease");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_keeps_a_held_lease_alive_past_its_ttl() {
        let dir = scratch("beat");
        let ttl = Duration::from_millis(80);
        let holder = LeaseDir::new(&dir, "holder", ttl).unwrap();
        let rival = LeaseDir::new(&dir, "rival", ttl).unwrap();
        let held = holder.try_claim("cell2-w0").unwrap().expect("claim");
        // Hold well past the TTL: the heartbeat must keep refreshing mtime
        // so the rival never sees it as stale.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(40));
            assert!(
                rival.try_claim("cell2-w0").unwrap().is_none(),
                "heartbeat lapsed; live lease was stolen"
            );
        }
        drop(held);
        assert!(rival.try_claim("cell2-w0").unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
