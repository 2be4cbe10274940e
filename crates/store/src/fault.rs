//! Deterministic fault injection over the [`crate::io::Io`] layer.
//!
//! A [`FaultPlan`] is a *seeded, step-indexed* schedule: every mutating
//! filesystem operation the store performs gets a global index, and a
//! splitmix64 hash of `(seed, index)` decides whether that operation fails
//! and how. Two runs with the same seed and the same operation sequence
//! fail identically — the property the chaos harness builds on. Faults are
//! bounded by [`FaultPlan::max_faults`], so every schedule eventually goes
//! quiet and the system under test must converge back to fault-free
//! behaviour.
//!
//! Read-path operations are never failed: recovery must stay able to
//! observe whatever the faulty writes left behind, exactly as a real disk
//! that stopped erroring would be re-read.

use std::fmt::Debug;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::io::{Io, IoFile, RealIo};

/// What an injected fault does to the operation it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails outright; no bytes reach the file.
    FailWrite,
    /// Only a prefix of the buffer is written before the error — the torn
    /// tail crash recovery must truncate.
    ShortWrite,
    /// The operation fails with an ENOSPC-style "no space left" error.
    Enospc,
    /// An `fsync`/`fdatasync` fails (data may or may not be durable).
    FsyncError,
}

/// A seeded, step-indexed schedule of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed; same seed + same operation sequence = same faults.
    pub seed: u64,
    /// Injection probability per mutating operation, in 1/256ths
    /// (64 ≈ 25 %). Clamped to 255.
    pub rate: u8,
    /// Total faults the schedule may inject before going permanently
    /// quiet. Bounding this is what lets the chaos harness assert
    /// convergence *after* the fault storm.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan with the default storm shape: ~25 % of mutating operations
    /// fail until 8 faults have fired.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rate: 64,
            max_faults: 8,
        }
    }

    /// Wraps the real filesystem in this fault schedule.
    pub fn io(self) -> FaultyIo {
        FaultyIo {
            inner: RealIo,
            state: Arc::new(FaultState {
                plan: self,
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }
}

/// The splitmix64 finalizer: a seeded, stateless 64-bit mix. Every seeded
/// schedule in the workspace (store and socket fault plans, client retry
/// jitter) draws from this one function, so a seed means the same thing
/// everywhere.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shared schedule position: one counter across the [`FaultyIo`] and every
/// file it has opened, so the operation index is global and deterministic.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl FaultState {
    /// Consumes one mutating-operation slot; `Some(kind)` when the
    /// schedule says this operation fails.
    fn next_fault(&self) -> Option<FaultKind> {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.injected.load(Ordering::Relaxed) >= self.plan.max_faults {
            return None;
        }
        let h = splitmix64(self.plan.seed ^ idx.wrapping_mul(0xa076_1d64_78bd_642f));
        if (h & 0xff) as u8 >= self.plan.rate {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(match (h >> 8) % 3 {
            0 => FaultKind::FailWrite,
            1 => FaultKind::ShortWrite,
            _ => FaultKind::Enospc,
        })
    }
}

fn injected_err(kind: FaultKind, what: &str) -> io::Error {
    match kind {
        FaultKind::Enospc => {
            io::Error::other(format!("injected fault: no space left on device ({what})"))
        }
        FaultKind::FsyncError => io::Error::other(format!("injected fault: fsync failed ({what})")),
        _ => io::Error::other(format!("injected fault: {what}")),
    }
}

/// [`RealIo`] behind a [`FaultPlan`]: mutating operations consult the
/// schedule; reads pass through untouched.
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    state: Arc<FaultState>,
}

impl FaultyIo {
    /// Faults injected so far (for harness assertions).
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }
}

/// One store file under the shared fault schedule.
#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn IoFile>,
    state: Arc<FaultState>,
}

impl IoFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.write_all(buf),
            Some(FaultKind::ShortWrite) => {
                // Land the torn prefix for real — recovery must later find
                // and truncate it, exactly like a crash mid-append.
                let keep = buf.len() / 2;
                self.inner.write_all(&buf[..keep])?;
                Err(injected_err(FaultKind::ShortWrite, "short write"))
            }
            Some(kind) => Err(injected_err(kind, "write")),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.sync_data(),
            Some(_) => Err(injected_err(FaultKind::FsyncError, "fdatasync")),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.sync_all(),
            Some(_) => Err(injected_err(FaultKind::FsyncError, "fsync")),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.set_len(len),
            Some(kind) => Err(injected_err(kind, "set_len")),
        }
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        // Positioning reads nothing and writes nothing; never failed.
        self.inner.seek_end()
    }
}

impl Io for FaultyIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.create_dir_all(dir),
            Some(kind) => Err(injected_err(kind, "create_dir_all")),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(dir)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        let inner = match self.state.next_fault() {
            None => self.inner.open_rw(path)?,
            Some(kind) => return Err(injected_err(kind, "open")),
        };
        Ok(Box::new(FaultyFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        let inner = match self.state.next_fault() {
            None => self.inner.create_truncate(path)?,
            Some(kind) => return Err(injected_err(kind, "create")),
        };
        Ok(Box::new(FaultyFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.rename(from, to),
            Some(kind) => Err(injected_err(kind, "rename")),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.remove_file(path),
            Some(kind) => Err(injected_err(kind, "remove")),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.state.next_fault() {
            None => self.inner.sync_dir(dir),
            Some(_) => Err(injected_err(FaultKind::FsyncError, "sync_dir")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the schedule decision sequence without any filesystem.
    fn schedule(plan: FaultPlan, ops: usize) -> Vec<Option<FaultKind>> {
        let state = FaultState {
            plan,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        };
        (0..ops).map(|_| state.next_fault()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new(42);
        assert_eq!(schedule(plan, 200), schedule(plan, 200));
    }

    #[test]
    fn different_seeds_differ() {
        let a = schedule(FaultPlan::new(1), 200);
        let b = schedule(FaultPlan::new(2), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn faults_are_bounded_then_quiet() {
        let plan = FaultPlan {
            seed: 7,
            rate: 128,
            max_faults: 3,
        };
        let seq = schedule(plan, 500);
        let fired: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|_| i))
            .collect();
        assert_eq!(fired.len(), 3, "exactly max_faults fire");
        // Everything after the last fault is quiet forever.
        let last = *fired.last().unwrap();
        assert!(seq[last + 1..].iter().all(Option::is_none));
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan {
            seed: 9,
            rate: 0,
            max_faults: u64::MAX,
        };
        assert!(schedule(plan, 1000).iter().all(Option::is_none));
    }

    #[test]
    fn short_write_lands_a_torn_prefix() {
        let dir = std::env::temp_dir().join(format!("nws-fault-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Force every fault to be a short write by scanning seeds.
        let mut tested = false;
        for seed in 0..200 {
            let plan = FaultPlan {
                seed,
                rate: 255,
                max_faults: 1,
            };
            let state = FaultState {
                plan,
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            };
            if state.next_fault() != Some(FaultKind::ShortWrite) {
                continue;
            }
            let io = plan.io();
            let path = dir.join(format!("s{seed}.bin"));
            let f = io.inner.open_rw(&path).unwrap();
            let mut faulty = FaultyFile {
                inner: f,
                state: Arc::new(FaultState {
                    plan,
                    ops: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                }),
            };
            let err = faulty.write_all(b"0123456789").unwrap_err();
            assert!(err.to_string().contains("injected"));
            drop(faulty);
            assert_eq!(std::fs::read(&path).unwrap(), b"01234");
            drop(io);
            tested = true;
            break;
        }
        assert!(tested, "no seed produced a leading short write");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
