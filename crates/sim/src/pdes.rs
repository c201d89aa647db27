//! Conservative-lookahead parallel discrete-event simulation (PDES).
//!
//! The engine partitions a platform into *islands* — disjoint groups of
//! PEs, each simulated by its own [`Sim`] (slab executor + timer wheel) on
//! a worker thread — and synchronizes them in bounded time windows, the
//! approach parti-gem5 and MGSim use for tile-based manycores. The window
//! width comes from the *lookahead*: the minimum simulated latency of any
//! cross-island NoC transfer (`m3_noc::IslandMap::lookahead`). Inside a
//! window every island advances freely; events that cross a boundary are
//! exported as timestamped [`PdesEvent`]s and delivered at the next
//! barrier, which is always soon enough because nothing can cross the NoC
//! faster than the lookahead.
//!
//! # The synchronization protocol
//!
//! Each round the coordinator computes `base`, the earliest time any
//! island can act (minimum of every island's next event and every
//! undelivered cross-island event), and closes the window at
//! `end = base + lookahead - 1`:
//!
//! 1. deliver every pending event with `at <= end` to its destination
//!    island's port, in `(at, src island, seq)` order;
//! 2. run every island's executor up to `end` ([`Sim::run_window`]);
//! 3. collect newly exported events — the lookahead guarantees each has
//!    `at > end`, so step 1 of a later round delivers it in time.
//!
//! # Determinism
//!
//! Results are bit-identical for every worker count by construction, not
//! by tie-breaking heroics at runtime: the window sequence is a function
//! of simulated state only, each island's execution inside a window is the
//! ordinary deterministic single-threaded executor, and the one genuinely
//! concurrent step — merging event streams from islands that ran in
//! parallel — orders them by the total key `(timestamp, source island,
//! sequence number)`. Worker threads only change which host core runs an
//! island, never what the island observes. [`Sim::run_window`] also never
//! advances a clock to the barrier itself, so traces contain no artifact
//! of where the window boundaries fell.
//!
//! # What lives where
//!
//! `Sim` is `!Send` (single-threaded by design), so island *builders* are
//! `Send` closures shipped to the worker thread, which constructs the
//! island there; everything crossing threads afterwards is plain data.
//! Cross-island messages travel as bytes (see `m3_dtu::wire`) through
//! numbered [`PortRx`] inboxes registered by the builder.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::mpsc;

use m3_base::Cycles;
use m3_trace::{Component, Event, EventKind};

use crate::executor::Sim;
use crate::notify::Notify;

/// A timestamped event crossing an island boundary.
///
/// The derived `Ord` is the deterministic merge order: timestamp, then
/// source island, then per-source sequence number. `(src, seq)` is unique,
/// so the order is total and identical for every worker count.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PdesEvent {
    /// Simulated delivery time (the NoC arrival time at the destination).
    pub at: Cycles,
    /// Source island.
    pub src: u32,
    /// Sequence number within the source island, in emission order.
    pub seq: u64,
    /// Destination island.
    pub dst: u32,
    /// Destination port (registered via [`IslandCtx::port`]).
    pub port: usize,
    /// Opaque payload, typically a `m3_dtu::wire`-encoded message.
    pub bytes: Vec<u8>,
}

/// Residency of one island over the whole run, in simulated cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IslandStats {
    /// Cycles the island's clock advanced inside windows (busy).
    pub advanced: Cycles,
    /// Cycles between the island's last local event and each barrier
    /// (idle: the island was done early and waited for the fleet).
    pub barrier_wait: Cycles,
    /// Cross-island events delivered to this island.
    pub events_in: u64,
    /// Cross-island events this island emitted.
    pub events_out: u64,
    /// The island's clock when the run ended.
    pub final_now: Cycles,
}

/// The outcome of a [`run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PdesReport {
    /// Per-island output strings, in island order (whatever each island's
    /// finish closure extracted — results, digests, …).
    pub outputs: Vec<String>,
    /// Per-island residency, in island order.
    pub islands: Vec<IslandStats>,
    /// Number of synchronization windows executed.
    pub windows: u64,
    /// Total cross-island events delivered.
    pub events: u64,
    /// Undelivered events dropped at termination (addressed to islands
    /// whose regular tasks had all finished — the windowed analogue of
    /// [`Sim::run`] abandoning in-flight daemon work).
    pub abandoned: u64,
    /// The latest island clock at termination.
    pub end_time: Cycles,
}

/// Engine parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PdesConfig {
    /// Window width: the minimum cross-island event latency. Must be the
    /// *minimum* over all island pairs or the run is not conservative;
    /// derive it with `m3_noc::IslandMap::lookahead`.
    pub lookahead: Cycles,
    /// Worker threads; clamped to `[1, islands]`. The results are
    /// identical for every value — this only trades wall-clock time.
    pub workers: usize,
}

/// Extracts an island's result after its last window, on its thread.
pub type IslandFinish = Box<dyn FnOnce(&IslandCtx) -> String>;

/// Builds one island inside its freshly created [`Sim`], registering ports
/// and spawning tasks; runs once on the worker thread before any window.
pub type IslandBuilder = Box<dyn FnOnce(&IslandCtx) -> IslandFinish + Send>;

/// Timestamped payloads queued on one inbound port, shared between the
/// engine (which pushes at delivery time) and [`PortRx`] clones.
type PortQueue = Rc<RefCell<VecDeque<(Cycles, Vec<u8>)>>>;

struct PortState {
    queue: PortQueue,
    notify: Notify,
}

struct CtxInner {
    sim: Sim,
    id: u32,
    islands: u32,
    lookahead: Cycles,
    seq: RefCell<u64>,
    outbox: RefCell<Vec<PdesEvent>>,
    ports: RefCell<BTreeMap<usize, PortState>>,
}

/// One island's handle on the engine: its [`Sim`], its identity, and the
/// boundary — inbound ports and the outbound event queue. Cloneable so
/// tasks can capture it.
#[derive(Clone)]
pub struct IslandCtx {
    inner: Rc<CtxInner>,
}

impl IslandCtx {
    fn new(id: u32, islands: u32, lookahead: Cycles) -> IslandCtx {
        IslandCtx {
            inner: Rc::new(CtxInner {
                sim: Sim::new(),
                id,
                islands,
                lookahead,
                seq: RefCell::new(0),
                outbox: RefCell::new(Vec::new()),
                ports: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// The island's simulation.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// This island's id.
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// Number of islands in the run.
    pub fn islands(&self) -> u32 {
        self.inner.islands
    }

    /// The engine's lookahead (minimum legal cross-island latency).
    pub fn lookahead(&self) -> Cycles {
        self.inner.lookahead
    }

    /// Registers (or returns) inbound port `idx`. Ports must be registered
    /// by the island builder — delivery to an unregistered port panics, as
    /// it means a message raced island construction.
    pub fn port(&self, idx: usize) -> PortRx {
        let mut ports = self.inner.ports.borrow_mut();
        let state = ports.entry(idx).or_insert_with(|| PortState {
            queue: Rc::new(RefCell::new(VecDeque::new())),
            notify: Notify::new(),
        });
        PortRx {
            sim: self.inner.sim.clone(),
            queue: state.queue.clone(),
            notify: state.notify.clone(),
        }
    }

    /// Emits a cross-island event arriving at `dst`'s port `port` at
    /// simulated time `at`.
    ///
    /// # Panics
    ///
    /// Panics when the event violates the conservative contract: `at` must
    /// be at least `now + lookahead` (a correctly modelled NoC transfer
    /// always is — see `IslandMap::lookahead`), and `dst` must be another
    /// island of this run.
    pub fn send(&self, at: Cycles, dst: u32, port: usize, bytes: Vec<u8>) {
        let now = self.inner.sim.now();
        assert!(
            at >= now + self.inner.lookahead,
            "island {}: event at {at} violates lookahead {} (now {now})",
            self.inner.id,
            self.inner.lookahead,
        );
        assert!(
            dst < self.inner.islands && dst != self.inner.id,
            "island {}: bad destination island {dst}",
            self.inner.id,
        );
        let seq = {
            let mut seq = self.inner.seq.borrow_mut();
            *seq += 1;
            *seq - 1
        };
        self.inner.outbox.borrow_mut().push(PdesEvent {
            at,
            src: self.inner.id,
            seq,
            dst,
            port,
            bytes,
        });
    }

    fn deposit(&self, ev: PdesEvent) {
        debug_assert!(ev.at > self.inner.sim.now(), "late delivery");
        let ports = self.inner.ports.borrow();
        let Some(state) = ports.get(&ev.port) else {
            panic!(
                "island {}: no port {} for event from island {}",
                self.inner.id, ev.port, ev.src
            );
        };
        state.queue.borrow_mut().push_back((ev.at, ev.bytes));
        state.notify.notify_all();
    }

    fn drain_outbox(&self) -> Vec<PdesEvent> {
        std::mem::take(&mut self.inner.outbox.borrow_mut())
    }
}

/// The receive side of an inbound island port.
///
/// Cloneable; clones share the queue. Arrivals on one port are already in
/// deterministic merge order and strictly increasing in time, so a single
/// pump task draining the port sees a well-defined sequence.
#[derive(Clone)]
pub struct PortRx {
    sim: Sim,
    queue: PortQueue,
    notify: Notify,
}

impl PortRx {
    /// Receives the next event, completing exactly at its delivery time.
    pub async fn recv(&self) -> (Cycles, Vec<u8>) {
        loop {
            let front_at = self.queue.borrow().front().map(|(at, _)| *at);
            match front_at {
                Some(at) if at <= self.sim.now() => {
                    return self.queue.borrow_mut().pop_front().expect("checked front");
                }
                // The barrier only delivers events after the local clock
                // passed `at - 1`, so sleeping to `at` cannot overshoot a
                // not-yet-delivered earlier event.
                Some(at) => self.sim.sleep_until(at).await,
                None => self.notify.wait().await,
            }
        }
    }

    /// Events currently queued (delivered but not yet received).
    pub fn len(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Whether no delivered event is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.borrow().is_empty()
    }
}

enum Command {
    /// Run one window up to `end`, delivering `events` first (keyed by
    /// island id, each list already in merge order).
    Window {
        end: Cycles,
        events: BTreeMap<u32, Vec<PdesEvent>>,
    },
    Finish,
}

struct WindowReply {
    island: u32,
    next: Option<Cycles>,
    live: usize,
    out: Vec<PdesEvent>,
    stalled: Vec<String>,
}

enum Reply {
    Window(WindowReply),
    Finished {
        island: u32,
        output: String,
        stats: IslandStats,
    },
}

struct WorkerIsland {
    ctx: IslandCtx,
    finish: Option<IslandFinish>,
    stats: IslandStats,
}

impl WorkerIsland {
    fn report(&self) -> WindowReply {
        let sim = self.ctx.sim();
        let next = sim.next_event_time();
        let live = sim.live_regular();
        WindowReply {
            island: self.ctx.id(),
            next,
            live,
            out: self.ctx.drain_outbox(),
            stalled: if next.is_none() && live > 0 {
                sim.regular_task_names()
            } else {
                Vec::new()
            },
        }
    }

    fn run_window(&mut self, end: Cycles, events: Vec<PdesEvent>) -> WindowReply {
        self.stats.events_in += events.len() as u64;
        for ev in events {
            self.ctx.deposit(ev);
        }
        let sim = self.ctx.sim().clone();
        let before = sim.now();
        sim.run_window(end);
        let after = sim.now();
        let (advanced, waited) = (after - before, end - after);
        self.stats.advanced += advanced;
        self.stats.barrier_wait += waited;
        let island = self.ctx.id();
        sim.tracer().record_with(|| Event {
            at: after,
            dur: Cycles::ZERO,
            pe: None,
            comp: Component::Sched,
            kind: EventKind::IslandWindow {
                island,
                advanced,
                waited,
            },
        });
        let reply = self.report();
        self.stats.events_out += reply.out.len() as u64;
        reply
    }

    fn finish(mut self) -> Reply {
        let output = (self.finish.take().expect("finish runs once"))(&self.ctx);
        self.stats.final_now = self.ctx.sim().now();
        self.ctx.sim().flush_gauges();
        Reply::Finished {
            island: self.ctx.id(),
            output,
            stats: self.stats,
        }
    }
}

fn worker(
    islands_total: u32,
    lookahead: Cycles,
    builders: Vec<(u32, IslandBuilder)>,
    commands: mpsc::Receiver<Command>,
    replies: mpsc::Sender<Reply>,
) {
    let mut islands: Vec<WorkerIsland> = builders
        .into_iter()
        .map(|(id, build)| {
            let ctx = IslandCtx::new(id, islands_total, lookahead);
            let finish = build(&ctx);
            WorkerIsland {
                ctx,
                finish: Some(finish),
                stats: IslandStats::default(),
            }
        })
        .collect();
    // Initial horizon report, before any window.
    for isl in &islands {
        let _ = replies.send(Reply::Window(isl.report()));
    }
    while let Ok(cmd) = commands.recv() {
        match cmd {
            Command::Window { end, mut events } => {
                for isl in &mut islands {
                    let evs = events.remove(&isl.ctx.id()).unwrap_or_default();
                    let reply = isl.run_window(end, evs);
                    let _ = replies.send(Reply::Window(reply));
                }
            }
            Command::Finish => {
                for isl in islands {
                    let _ = replies.send(isl.finish());
                }
                return;
            }
        }
    }
}

/// Runs `builders.len()` islands to completion under the window protocol
/// and returns their outputs and residency.
///
/// Terminates when every island's regular (non-daemon) tasks have
/// finished, mirroring [`Sim::run`]; cross-island events still in flight
/// at that point are dropped and counted in [`PdesReport::abandoned`].
///
/// # Panics
///
/// Panics when every island is blocked with regular tasks still live and
/// no event in flight (the distributed analogue of `SimState::Stalled`),
/// or when an island violates the lookahead contract.
#[expect(
    clippy::disallowed_methods,
    reason = "the PDES coordinator is the one sanctioned std::thread user: worker threads change which core runs an island, never what it observes"
)]
pub fn run(cfg: &PdesConfig, builders: Vec<IslandBuilder>) -> PdesReport {
    assert!(
        cfg.lookahead >= Cycles::new(1),
        "lookahead must be positive"
    );
    assert!(!builders.is_empty(), "need at least one island");
    let islands = builders.len() as u32;
    let workers = cfg.workers.clamp(1, builders.len());

    // Contiguous chunks, wide chunks first (mirrors IslandMap::columns).
    let base = builders.len() / workers;
    let extra = builders.len() % workers;
    let mut chunks: Vec<Vec<(u32, IslandBuilder)>> = Vec::with_capacity(workers);
    let mut next_id = 0u32;
    let mut rest = builders;
    for w in 0..workers {
        let take = base + usize::from(w < extra);
        let mut chunk = Vec::with_capacity(take);
        for b in rest.drain(..take) {
            chunk.push((next_id, b));
            next_id += 1;
        }
        chunks.push(chunk);
    }

    let mut island_thread: Vec<usize> = Vec::with_capacity(islands as usize);
    let mut thread_islands: Vec<usize> = Vec::with_capacity(workers);
    for (t, chunk) in chunks.iter().enumerate() {
        island_thread.extend(std::iter::repeat_n(t, chunk.len()));
        thread_islands.push(chunk.len());
    }

    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(workers);
        // One reply channel per worker: a worker that dies (panic in an
        // island) closes its channel, so the coordinator fails fast
        // instead of waiting forever on a shared channel the healthy
        // workers keep open.
        let mut reply_rxs = Vec::with_capacity(workers);
        for chunk in chunks {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            let lookahead = cfg.lookahead;
            scope.spawn(move || worker(islands, lookahead, chunk, cmd_rx, reply_tx));
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
        }

        let mut next: Vec<Option<Cycles>> = vec![None; islands as usize];
        let mut live: Vec<usize> = vec![0; islands as usize];
        let mut stalled: Vec<Vec<String>> = vec![Vec::new(); islands as usize];
        let mut pending: BTreeSet<PdesEvent> = BTreeSet::new();
        let mut windows = 0u64;
        let mut delivered = 0u64;

        let collect_round = |pending: &mut BTreeSet<PdesEvent>,
                             next: &mut Vec<Option<Cycles>>,
                             live: &mut Vec<usize>,
                             stalled: &mut Vec<Vec<String>>,
                             window_end: Option<Cycles>| {
            for (rx, count) in reply_rxs.iter().zip(&thread_islands) {
                for _ in 0..*count {
                    match rx.recv().expect("island worker died") {
                        Reply::Window(r) => {
                            let i = r.island as usize;
                            next[i] = r.next;
                            live[i] = r.live;
                            stalled[i] = r.stalled;
                            for ev in r.out {
                                if let Some(end) = window_end {
                                    assert!(ev.at > end, "island {} broke lookahead", r.island);
                                }
                                pending.insert(ev);
                            }
                        }
                        Reply::Finished { .. } => unreachable!("finish not requested yet"),
                    }
                }
            }
        };

        collect_round(&mut pending, &mut next, &mut live, &mut stalled, None);

        loop {
            if live.iter().all(|&l| l == 0) {
                break;
            }
            let mut base: Option<Cycles> = pending.first().map(|e| e.at);
            for n in next.iter().flatten() {
                base = Some(base.map_or(*n, |b| b.min(*n)));
            }
            let Some(window_base) = base else {
                let names: Vec<String> = stalled.concat();
                panic!("pdes stalled: no island can make progress; live tasks: {names:?}");
            };
            let end = window_base + cfg.lookahead - Cycles::new(1);

            let mut deliveries: BTreeMap<u32, Vec<PdesEvent>> = BTreeMap::new();
            while let Some(first) = pending.first() {
                if first.at > end {
                    break;
                }
                let ev = pending.pop_first().expect("checked first");
                delivered += 1;
                deliveries.entry(ev.dst).or_default().push(ev);
            }
            let mut per_thread: Vec<BTreeMap<u32, Vec<PdesEvent>>> =
                (0..workers).map(|_| BTreeMap::new()).collect();
            for (dst, evs) in deliveries {
                per_thread[island_thread[dst as usize]].insert(dst, evs);
            }
            for (tx, events) in cmd_txs.iter().zip(per_thread) {
                tx.send(Command::Window { end, events })
                    .expect("island worker died");
            }
            collect_round(&mut pending, &mut next, &mut live, &mut stalled, Some(end));
            windows += 1;
        }

        for tx in &cmd_txs {
            tx.send(Command::Finish).expect("island worker died");
        }
        let mut outputs: Vec<Option<String>> = vec![None; islands as usize];
        let mut stats: Vec<Option<IslandStats>> = vec![None; islands as usize];
        for (rx, count) in reply_rxs.iter().zip(&thread_islands) {
            for _ in 0..*count {
                match rx.recv().expect("island worker died") {
                    Reply::Finished {
                        island,
                        output,
                        stats: s,
                    } => {
                        outputs[island as usize] = Some(output);
                        stats[island as usize] = Some(s);
                    }
                    Reply::Window(_) => unreachable!("windows are all collected"),
                }
            }
        }
        let stats: Vec<IslandStats> = stats.into_iter().map(|s| s.expect("reported")).collect();
        let end_time = stats
            .iter()
            .map(|s| s.final_now)
            .max()
            .unwrap_or(Cycles::ZERO);
        PdesReport {
            outputs: outputs.into_iter().map(|o| o.expect("reported")).collect(),
            islands: stats,
            windows,
            events: delivered,
            abandoned: pending.len() as u64,
            end_time,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize) -> PdesConfig {
        PdesConfig {
            lookahead: Cycles::new(7),
            workers,
        }
    }

    /// Island 0 sends `rounds` pings to island 1; island 1 echoes each
    /// back. Both report their final time and everything they saw.
    fn ping_pong(rounds: u64) -> Vec<IslandBuilder> {
        let ping: IslandBuilder = Box::new(move |ctx: &IslandCtx| {
            let rx = ctx.port(0);
            let ctx2 = ctx.clone();
            let log = Rc::new(RefCell::new(String::new()));
            let log2 = log.clone();
            ctx.sim().spawn("pinger", async move {
                for i in 0..rounds {
                    let now = ctx2.sim().now();
                    ctx2.send(now + ctx2.lookahead(), 1, 0, vec![i as u8]);
                    let (at, bytes) = rx.recv().await;
                    use std::fmt::Write as _;
                    let _ = write!(log2.borrow_mut(), "{}@{};", bytes[0], at);
                }
            });
            let log = log.clone();
            Box::new(move |ctx: &IslandCtx| format!("{}|{}", log.borrow(), ctx.sim().now()))
        });
        let pong: IslandBuilder = Box::new(move |ctx: &IslandCtx| {
            let rx = ctx.port(0);
            let ctx2 = ctx.clone();
            ctx.sim().spawn("ponger", async move {
                for _ in 0..rounds {
                    let (_, bytes) = rx.recv().await;
                    let now = ctx2.sim().now();
                    ctx2.send(now + ctx2.lookahead(), 0, 0, bytes);
                }
            });
            Box::new(|ctx: &IslandCtx| ctx.sim().now().to_string())
        });
        vec![ping, pong]
    }

    #[test]
    fn ping_pong_round_trip_takes_two_lookaheads_per_round() {
        let report = run(&cfg(1), ping_pong(3));
        // Each round: ping at now+7 delivered at now+7, echo at +14.
        assert_eq!(report.outputs[0], "0@14;1@28;2@42;|42");
        assert_eq!(report.events, 6);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.end_time, Cycles::new(42));
        assert!(report.windows >= 6, "windows: {}", report.windows);
    }

    #[test]
    fn results_are_identical_for_every_worker_count() {
        let reference = run(&cfg(1), ping_pong(5));
        for workers in [2, 3, 8] {
            let report = run(&cfg(workers), ping_pong(5));
            assert_eq!(report, reference, "workers={workers}");
        }
    }

    #[test]
    fn merge_order_breaks_timestamp_ties_by_source_island() {
        // Islands 1 and 2 both send to island 0 with the same timestamp;
        // the receiver must see island 1's event first, regardless of
        // which worker thread ran which island.
        let build = || -> Vec<IslandBuilder> {
            let sink: IslandBuilder = Box::new(|ctx: &IslandCtx| {
                let rx = ctx.port(0);
                let order = Rc::new(RefCell::new(Vec::<u8>::new()));
                let order2 = order.clone();
                ctx.sim().spawn("sink", async move {
                    for _ in 0..2 {
                        let (_, bytes) = rx.recv().await;
                        order2.borrow_mut().push(bytes[0]);
                    }
                });
                Box::new(move |_| format!("{:?}", order.borrow()))
            });
            let src = |tag: u8| -> IslandBuilder {
                Box::new(move |ctx: &IslandCtx| {
                    let ctx2 = ctx.clone();
                    ctx.sim().spawn("src", async move {
                        ctx2.send(Cycles::new(10), 0, 0, vec![tag]);
                    });
                    Box::new(|_: &IslandCtx| String::new())
                })
            };
            vec![sink, src(1), src(2)]
        };
        for workers in [1, 2, 3] {
            let report = run(&cfg(workers), build());
            assert_eq!(report.outputs[0], "[1, 2]", "workers={workers}");
        }
    }

    #[test]
    fn daemons_do_not_block_termination() {
        let one: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            let sim = ctx.sim().clone();
            let sim2 = sim.clone();
            sim.spawn_daemon("ticker", async move {
                loop {
                    sim2.sleep(Cycles::new(5)).await;
                }
            });
            let sim3 = sim.clone();
            sim.spawn("work", async move {
                sim3.sleep(Cycles::new(12)).await;
            });
            Box::new(|ctx: &IslandCtx| ctx.sim().now().to_string())
        });
        let report = run(&cfg(1), vec![one]);
        // The work task finishes at 12, which falls in the window
        // [10, 16]; the daemon tick at 15 is inside that window and still
        // fires (a window always runs to its end), but the tick at 20 is
        // past the final barrier and is abandoned, exactly like
        // `Sim::run` abandons daemon timers once regular tasks are done.
        assert_eq!(report.islands[0].final_now, Cycles::new(15));
        assert_eq!(report.end_time, Cycles::new(15));
    }

    #[test]
    fn residency_accounts_busy_and_barrier_wait() {
        let report = run(&cfg(2), ping_pong(4));
        for s in &report.islands {
            // Both islands end at the same final barrier time, so busy +
            // wait covers the same span on each.
            assert!((s.advanced + s.barrier_wait).as_u64() > 0, "{s:?}");
        }
        assert_eq!(report.islands[0].events_in, 4);
        assert_eq!(report.islands[0].events_out, 4);
    }

    #[test]
    fn island_window_events_record_residency_in_traces() {
        let one: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            ctx.sim().enable_trace();
            let sim = ctx.sim().clone();
            ctx.sim().spawn("work", async move {
                sim.sleep(Cycles::new(20)).await;
            });
            Box::new(|ctx: &IslandCtx| {
                let windows = ctx
                    .sim()
                    .trace()
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::IslandWindow { .. }))
                    .count();
                windows.to_string()
            })
        });
        let report = run(&cfg(1), vec![one]);
        let recorded: u64 = report.outputs[0].parse().unwrap();
        assert_eq!(recorded, report.windows);
    }

    #[test]
    #[should_panic(expected = "island worker")]
    fn lookahead_violation_is_fatal() {
        let bad: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            let ctx2 = ctx.clone();
            ctx.sim().spawn("cheater", async move {
                // One cycle short of the lookahead: must be rejected.
                ctx2.send(ctx2.lookahead() - Cycles::new(1), 1, 0, vec![]);
            });
            Box::new(|_: &IslandCtx| String::new())
        });
        let idle: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            ctx.port(0);
            Box::new(|_: &IslandCtx| String::new())
        });
        run(&cfg(2), vec![bad, idle]);
    }

    #[test]
    #[should_panic(expected = "pdes stalled")]
    fn cross_island_deadlock_reports_stall() {
        let waiting = || -> IslandBuilder {
            Box::new(|ctx: &IslandCtx| {
                let rx = ctx.port(0);
                ctx.sim().spawn("forever", async move {
                    let _ = rx.recv().await;
                });
                Box::new(|_: &IslandCtx| String::new())
            })
        };
        run(&cfg(1), vec![waiting(), waiting()]);
    }
}
