//! Compiled clippy corpus: the shapes clippy must and must not flag.
//!
//! Determinism, no-unwrap and borrow-across-await are enforced by clippy,
//! not by m3-lint (DESIGN.md §5b): the root `clippy.toml` bans hashed
//! collections, wall clocks and OS threads; `kernel`, `dtu` and `fs` opt
//! into `unwrap_used`/`expect_used` the way this file does below; and
//! `await_holding_refcell_ref` is on by default.
//!
//! Every known-bad shape carries `#[expect(clippy::<lint>, reason =
//! "corpus")]`, so `cargo clippy --workspace --all-targets -- -D warnings`
//! fails if clippy stops detecting it (unfulfilled expectation). Every
//! known-good shape carries nothing, so the same command fails if clippy
//! starts flagging it. Plain rustc ignores clippy expectations: under
//! `cargo test` this file only has to compile.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![allow(dead_code, reason = "the shapes exist to be linted, not called")]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

/// Stand-in for an awaited simulator operation (a DTU transfer, a sleep).
async fn op(n: usize) -> usize {
    n
}

/// Stand-in for `block_on(&sim, predicate)`: runs the closure when polled.
async fn block_on_closure<R>(f: impl FnOnce() -> R) -> R {
    f()
}

struct Kernel {
    sched: RefCell<VecDeque<usize>>,
    pending: Rc<RefCell<VecDeque<usize>>>,
}

// ---------------- bad: determinism (clippy.toml) ----------------

fn nondeterministic_sources() {
    #[expect(clippy::disallowed_types, reason = "corpus")]
    let _ = std::collections::HashMap::<u32, u32>::new();
    #[expect(clippy::disallowed_types, reason = "corpus")]
    let _ = std::collections::HashSet::<u32>::new();
    #[expect(clippy::disallowed_types, reason = "corpus")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_types, reason = "corpus")]
    let _ = std::time::SystemTime::now();
    #[expect(clippy::disallowed_methods, reason = "corpus")]
    std::thread::sleep(Duration::ZERO);
    #[expect(clippy::disallowed_methods, reason = "corpus")]
    let _ = std::thread::spawn(|| ());
    #[expect(clippy::disallowed_methods, reason = "corpus")]
    let _ = std::thread::Builder::new().spawn(|| ());
}

/// The PDES coordinator shape (`crates/sim/src/pdes.rs`, which carries the
/// sanctioning `#[expect]`). Spawning on the scope is not flagged again:
/// entering the scope is the gate.
fn pdes_threads() {
    #[expect(clippy::disallowed_methods, reason = "corpus")]
    std::thread::scope(|scope| {
        scope.spawn(|| ());
    });
}

// ---------------- bad: no-unwrap (crate attribute above) ----------------

fn handle(caps: &BTreeMap<u32, u32>, sel: u32) {
    #[expect(clippy::unwrap_used, reason = "corpus")]
    let cap = *caps.get(&sel).unwrap();
    #[expect(clippy::expect_used, reason = "corpus")]
    let _ = u8::try_from(cap).expect("stale capability");
    // The `_err` variants panic on the other outcome, so they count too.
    #[expect(clippy::unwrap_used, reason = "corpus")]
    let _ = u8::try_from(cap).unwrap_err();
    #[expect(clippy::expect_used, reason = "corpus")]
    let _ = u8::try_from(cap).expect_err("in range");
}

// ---------------- bad: borrow across await ----------------

impl Kernel {
    /// Shape 1: a named guard held across the await.
    #[expect(clippy::await_holding_refcell_ref, reason = "corpus")]
    async fn switch_naive(&self) {
        let mut sched = self.sched.borrow_mut();
        let victim = sched.pop_front().unwrap_or(0);
        sched.push_back(op(victim).await);
    }

    /// Shape 2: the match scrutinee temporary lives through every arm,
    /// including the one that awaits.
    #[expect(clippy::await_holding_refcell_ref, reason = "corpus")]
    async fn dispatch_naive(&self) -> usize {
        match self.sched.borrow_mut().pop_front() {
            Some(v) => op(v).await,
            None => 0,
        }
    }

    /// Shape 3: a statement temporary: the guard from `.borrow()` lives
    /// until the end of the whole statement, across the await.
    #[expect(clippy::await_holding_refcell_ref, reason = "corpus")]
    async fn tick_naive(&self) {
        op(self.pending.borrow().len()).await;
    }

    /// Shape 4: an explicit `drop(guard)` before the await. The guard is
    /// dead at runtime, but clippy still counts it as held. The workspace
    /// has no such site; write a scoped block instead.
    #[expect(clippy::await_holding_refcell_ref, reason = "corpus")]
    async fn drain_with_drop(&self) -> usize {
        let queue = self.pending.borrow_mut();
        let n = queue.len();
        drop(queue);
        op(n).await
    }
}

// ---------------- ok: the idiomatic fixes ----------------

fn deterministic_sources(caps: &BTreeMap<u32, u32>) -> usize {
    let set: BTreeSet<u32> = caps.keys().copied().collect();
    // A host query, not a source of simulated nondeterminism.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fallback = caps.get(&2).copied().unwrap_or(0) + caps.get(&3).copied().unwrap_or_default();
    cores + set.len() + fallback as usize
}

impl Kernel {
    /// Scoped block: the guard dies at the `};` before the await.
    async fn perform_switch(&self) -> usize {
        let victim = {
            let mut sched = self.sched.borrow_mut();
            sched.pop_front().unwrap_or(0)
        };
        op(victim).await
    }

    /// Match on a copied-out decision, not on a live scrutinee guard.
    async fn dispatch(&self) -> usize {
        let next = self.sched.borrow().front().copied();
        match next {
            Some(v) => op(v).await,
            None => 0,
        }
    }

    /// A closure's borrow ends when the closure returns, so it is not live
    /// across the await of the future the closure is handed to.
    async fn read(&self) -> usize {
        let n = block_on_closure(|| self.pending.borrow_mut().pop_front()).await;
        op(n.unwrap_or(0)).await
    }

    /// An async block is built here, not run: its borrow belongs to the
    /// task that polls it, and that task never awaits while holding it.
    async fn writer_task(&self) -> impl std::future::Future<Output = ()> {
        let state = Rc::clone(&self.pending);
        let task = async move { state.borrow_mut().push_back(5) };
        op(0).await;
        task
    }
}
