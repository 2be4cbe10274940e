//! Deterministic fault injection behind the serving sockets — the
//! network-side sibling of `nws_store::FaultPlan` (DESIGN.md §15).
//!
//! A [`NetFaultPlan`] is a *seeded, counter-keyed* schedule: every socket
//! operation the daemon performs on an accepted connection gets an index
//! (read ops, write ops, and accepts each count on their own lane), and a
//! splitmix64 hash of `(seed, lane, index)` decides whether that operation
//! is perturbed and how. Two runs with the same seed and the same
//! operation sequence are perturbed identically — the property the
//! chaos-net harness builds its byte-for-byte determinism gate on. Faults
//! are bounded per connection by [`NetFaultPlan::max_faults`], so every
//! schedule eventually goes quiet and the system under test must converge
//! back to fault-free behaviour.
//!
//! The injected faults model what a hostile network actually does:
//! - **short reads / partial writes** — the kernel hands back fewer bytes
//!   than asked; exercises every resume loop above the socket;
//! - **per-op delays** — scheduling jitter and cross-continent RTTs;
//! - **connection resets** — the op fails with `ECONNRESET`, tearing the
//!   connection mid-request or mid-response;
//! - **accept-time failures** — the connection dies during the handshake,
//!   before the daemon ever greets it.
//!
//! Each accepted connection derives its own schedule from
//! `(plan seed, accept index)`, so the fault pattern a connection sees
//! does not depend on how many neighbours were accepted around it.

use nws_store::splitmix64;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injected network fault does to the operation it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The read is truncated: only a prefix of the caller's buffer may be
    /// filled this call (the kernel's prerogative; never an error).
    ShortRead,
    /// The write accepts only a prefix of the buffer (`write` returns a
    /// short count; callers' `write_all` loops must resume).
    ShortWrite,
    /// The operation is delayed by [`NetFaultPlan::delay_ms`] first.
    Delay,
    /// The operation fails with `ECONNRESET`, killing the connection.
    Reset,
}

/// A seeded, counter-keyed schedule of injected socket faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Schedule seed; same seed + same operation sequence = same faults.
    pub seed: u64,
    /// Injection probability per socket operation, in 1/256ths
    /// (48 ≈ 19 %). Clamped to 255.
    pub rate: u8,
    /// Faults one connection's schedule may inject before going
    /// permanently quiet. Bounding this is what lets the chaos harness
    /// assert convergence *after* the fault storm.
    pub max_faults: u64,
    /// How long a [`NetFaultKind::Delay`] stalls the operation.
    pub delay_ms: u64,
}

impl NetFaultPlan {
    /// A plan with the default storm shape: ~19 % of socket operations
    /// perturbed until 6 faults have fired per connection, 1 ms delays.
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            rate: 48,
            max_faults: 6,
            delay_ms: 1,
        }
    }

    /// The schedule for the `conn_index`-th accepted connection. Distinct
    /// connections get independent (but individually deterministic)
    /// fault sequences.
    pub(crate) fn conn_state(&self, conn_index: u64) -> NetFaultState {
        NetFaultState {
            plan: *self,
            lane_salt: splitmix64(self.seed ^ conn_index.wrapping_mul(0x9e6c_63d0_876a_9a7d)),
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The accept-lane schedule for one listener. Accept faults draw from
    /// their own bounded budget so a storm at the door cannot exhaust the
    /// per-connection budgets (and vice versa).
    pub(crate) fn accept_state(&self) -> NetFaultState {
        self.conn_state(u64::MAX)
    }

    /// The injected delay as a [`Duration`].
    pub(crate) fn delay(&self) -> Duration {
        Duration::from_millis(self.delay_ms)
    }
}

/// Distinguishes the three operation lanes in the hash input, so the
/// reader's and writer's schedules advance independently of each other's
/// progress (a reader op never shifts which write op gets faulted).
#[derive(Debug, Clone, Copy)]
enum Lane {
    Read,
    Write,
    Accept,
}

impl Lane {
    fn salt(self) -> u64 {
        match self {
            Lane::Read => 0x52_45_41_44,   // "READ"
            Lane::Write => 0x57_52_49_54,  // "WRIT"
            Lane::Accept => 0x41_43_43_50, // "ACCP"
        }
    }
}

/// One connection's (or listener's) position in its fault schedule,
/// shared by the read half and the write half of the stream pair.
#[derive(Debug)]
pub(crate) struct NetFaultState {
    plan: NetFaultPlan,
    lane_salt: u64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    injected: AtomicU64,
}

impl NetFaultState {
    fn next_fault(&self, lane: Lane, counter: &AtomicU64) -> Option<NetFaultKind> {
        let idx = counter.fetch_add(1, Ordering::Relaxed);
        if self.injected.load(Ordering::Relaxed) >= self.plan.max_faults {
            return None;
        }
        let h = splitmix64(self.lane_salt ^ lane.salt() ^ idx.wrapping_mul(0xa076_1d64_78bd_642f));
        if (h & 0xff) as u8 >= self.plan.rate {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(match (h >> 8) % 4 {
            0 => NetFaultKind::ShortRead,
            1 => NetFaultKind::ShortWrite,
            2 => NetFaultKind::Delay,
            _ => NetFaultKind::Reset,
        })
    }

    /// Consumes one read-op slot.
    pub(crate) fn next_read_fault(&self) -> Option<NetFaultKind> {
        self.next_fault(Lane::Read, &self.read_ops)
    }

    /// Consumes one write-op slot.
    pub(crate) fn next_write_fault(&self) -> Option<NetFaultKind> {
        self.next_fault(Lane::Write, &self.write_ops)
    }

    /// Consumes one accept slot; `true` when this accept must fail.
    /// (Every non-quiet fault kind collapses to "the handshake died" at
    /// the accept boundary — there is no byte stream to perturb yet.)
    pub(crate) fn next_accept_fault(&self) -> bool {
        self.next_fault(Lane::Accept, &self.read_ops).is_some()
    }

    /// The configured per-op delay.
    pub(crate) fn delay(&self) -> Duration {
        self.plan.delay()
    }

    /// Faults injected so far on this schedule.
    #[cfg(test)]
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// The error an injected [`NetFaultKind::Reset`] surfaces.
pub(crate) fn reset_err(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected fault: connection reset ({what})"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(state: &NetFaultState, lane: Lane, n: usize) -> Vec<Option<NetFaultKind>> {
        let counter = match lane {
            Lane::Write => &state.write_ops,
            _ => &state.read_ops,
        };
        (0..n).map(|_| state.next_fault(lane, counter)).collect()
    }

    /// Same seed, same connection, same lane → the identical fault
    /// sequence; this is the determinism the chaos-net harness's
    /// double-run `cmp` gate rests on.
    #[test]
    fn schedules_are_deterministic_per_seed() {
        let plan = NetFaultPlan::new(42);
        let a = schedule(&plan.conn_state(3), Lane::Read, 256);
        let b = schedule(&plan.conn_state(3), Lane::Read, 256);
        assert_eq!(a, b);
        assert!(
            a.iter().any(Option::is_some),
            "a 19% rate over 256 ops must fire at least once"
        );
    }

    /// Different seeds (or different connections under one seed) see
    /// different schedules — the sweep genuinely explores distinct storms.
    #[test]
    fn schedules_vary_across_seeds_and_connections() {
        let a = schedule(&NetFaultPlan::new(1).conn_state(0), Lane::Read, 256);
        let b = schedule(&NetFaultPlan::new(2).conn_state(0), Lane::Read, 256);
        let c = schedule(&NetFaultPlan::new(1).conn_state(1), Lane::Read, 256);
        assert_ne!(a, b, "seeds must decorrelate");
        assert_ne!(a, c, "connections must decorrelate");
    }

    /// The read and write lanes advance independently: consuming read ops
    /// never shifts which write ops get faulted. (Budget set high enough
    /// that only the lane counters matter.)
    #[test]
    fn lanes_are_independent() {
        let plan = NetFaultPlan {
            seed: 7,
            rate: 128,
            max_faults: u64::MAX,
            delay_ms: 0,
        };
        let only_writes = schedule(&plan.conn_state(0), Lane::Write, 64);
        let state = plan.conn_state(0);
        let _ = schedule(&state, Lane::Read, 17); // consume read ops first
        let writes_after_reads = schedule(&state, Lane::Write, 64);
        assert_eq!(only_writes, writes_after_reads);
    }

    /// Every schedule goes permanently quiet after `max_faults`: the storm
    /// is bounded, so harnesses can assert post-storm convergence.
    #[test]
    fn budget_bounds_the_storm() {
        let plan = NetFaultPlan {
            seed: 9,
            rate: 255, // every op faults until the budget is gone
            max_faults: 4,
            delay_ms: 0,
        };
        let state = plan.conn_state(0);
        let seq = schedule(&state, Lane::Read, 1000);
        assert_eq!(seq.iter().filter(|f| f.is_some()).count(), 4);
        assert_eq!(state.injected(), 4);
        assert!(seq[4..].iter().all(Option::is_none), "quiet after budget");
    }
}
