//! Kernel-held directory locks.
//!
//! The daemon must never let two processes interleave appends into one
//! state directory. Mutual exclusion is an exclusive advisory lock
//! ([`File::try_lock`], `flock(2)` on Linux) on a `LOCK` file: the kernel
//! arbitrates racers atomically and drops the lock when the holder's file
//! is closed, including when the process dies, so a crashed daemon never
//! leaves a lock that needs manual cleanup. The file also carries the
//! holder's PID, read only for the [`StoreError::Locked`] message.

use std::fs::{self, File, TryLockError};
use std::io::Write;
use std::path::Path;

use crate::StoreError;

/// File name of the lock inside a state directory.
pub const LOCK_FILE: &str = "LOCK";

/// A held directory lock; the kernel releases it when this drops.
///
/// The `LOCK` file itself stays behind: unlinking a locked file would let a
/// racer lock the orphaned inode while a third process locks a new file
/// under the same name.
#[derive(Debug)]
pub struct DirLock {
    _file: File,
}

impl DirLock {
    /// Acquires the lock for `dir`.
    ///
    /// # Errors
    /// [`StoreError::Locked`] when another open lock holds it — another
    /// process, or this one through an earlier store instance;
    /// [`StoreError::Io`] on filesystem failures.
    pub fn acquire(dir: &Path) -> Result<DirLock, StoreError> {
        let path = dir.join(LOCK_FILE);
        let io_err = |what: &str, e| StoreError::io(format!("{what} {}", path.display()), e);
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open lockfile", e))?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                // Until the holder writes its PID the file is empty (0) or
                // still names the previous holder; it only labels the error.
                let pid = fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| text.trim().parse().ok())
                    .unwrap_or(0);
                return Err(StoreError::Locked {
                    pid,
                    path: path.display().to_string(),
                });
            }
            Err(TryLockError::Error(e)) => return Err(io_err("lock lockfile", e)),
        }
        file.set_len(0)
            .and_then(|()| writeln!(file, "{}", std::process::id()))
            .map_err(|e| io_err("write lockfile", e))?;
        Ok(DirLock { _file: file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nws-store-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_writes_own_pid_and_release_removes() {
        let dir = temp_dir("basic");
        let lock = DirLock::acquire(&dir).unwrap();
        let content = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(content.trim().parse::<u32>().unwrap(), std::process::id());
        drop(lock);
        // Release frees the lock; the file stays for the next holder.
        assert!(dir.join(LOCK_FILE).exists());
        drop(DirLock::acquire(&dir).expect("released lock is free"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_lock_rejected_even_from_same_process() {
        let dir = temp_dir("live");
        let _held = DirLock::acquire(&dir).unwrap();
        match DirLock::acquire(&dir) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_reclaimed() {
        let dir = temp_dir("stale");
        // No real process gets the PID ceiling; this lock is dead on arrival.
        fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
        let lock = DirLock::acquire(&dir).unwrap();
        let content = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(content.trim().parse::<u32>().unwrap(), std::process::id());
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_lock_content_treated_as_stale() {
        let dir = temp_dir("garbage");
        fs::write(dir.join(LOCK_FILE), "not-a-pid\n").unwrap();
        assert!(DirLock::acquire(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_reclaimers_of_one_stale_lock_produce_one_winner() {
        // Seed a dead lock, then race many threads to reclaim it. The
        // kernel lock must let exactly one through; the rest see the
        // winner's live PID and report Locked.
        let dir = temp_dir("race");
        fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
        let results: Vec<Result<DirLock, StoreError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| DirLock::acquire(&dir))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let winners = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(winners, 1, "exactly one racer may hold the lock");
        for r in &results {
            if let Err(e) = r {
                assert!(
                    matches!(e, StoreError::Locked { .. }),
                    "losers must see Locked, got {e:?}"
                );
            }
        }
        // The winner's lockfile carries this process's PID and no other
        // files appear beside it.
        let content = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(content.trim().parse::<u32>().unwrap(), std::process::id());
        let stragglers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != LOCK_FILE)
            .collect();
        assert!(stragglers.is_empty(), "leftover files: {stragglers:?}");
        drop(results);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reclaim_after_owner_death_is_clean() {
        // Repeated stale→reclaim cycles never leave files beside LOCK.
        let dir = temp_dir("cycles");
        for _ in 0..5 {
            fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
            let lock = DirLock::acquire(&dir).unwrap();
            drop(lock);
            let names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names, [LOCK_FILE]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_leaves_a_reclaimed_lock_alone() {
        let dir = temp_dir("reclaimed");
        let lock = DirLock::acquire(&dir).unwrap();
        // Whatever the file names by now, drop never unlinks it.
        fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        drop(lock);
        assert!(dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
