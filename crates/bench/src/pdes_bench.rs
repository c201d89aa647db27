//! Cross-island PDES benchmark: one full M3 system per island, coupled by
//! a ring of wire-encoded DTU messages.
//!
//! Each island boots a [`System`] inside its island `Sim`
//! ([`System::boot_in`]) and runs a file-I/O program on it, so every
//! window carries real kernel/DTU/fs work. A gateway task additionally
//! sends `MSGS` wire-encoded messages to the next island in the ring, and
//! a receiver waits until all messages from the predecessor arrived — the
//! islands are genuinely coupled, not embarrassingly parallel.
//!
//! The digest string folds every island's program results, received
//! labels, and final clock together; it must be byte-identical for every
//! worker count (asserted by `tests/pdes.rs`).

use std::cell::Cell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_base::{Cycles, EpId, PeId};
use m3_dtu::wire;
use m3_dtu::{Header, Message};
use m3_fs::mount_m3fs;
use m3_libos::vfs;
use m3_noc::{IslandMap, NocConfig, Topology};
use m3_sim::pdes::{self, IslandBuilder, IslandFinish, PdesConfig, PdesReport};
use m3_sim::Notify;

/// Messages each island sends to its ring successor.
pub const MSGS: u64 = 24;

/// Simulated cycles between consecutive gateway sends.
const SEND_STEP: u64 = 96;

/// PEs per island system (kernel + fs + 4 application PEs).
const ISLAND_PES: usize = 6;

/// Concurrent file-I/O programs per island.
const ISLAND_JOBS: usize = 4;

/// The inter-island NoC: long-haul links between chip-level islands, an
/// order of magnitude slower than the intra-island mesh. A wider minimum
/// latency means a wider conservative window, so the engine synchronizes
/// less often. Intra-island traffic still uses [`NocConfig::default`].
fn ring_noc() -> NocConfig {
    NocConfig {
        hop_latency: Cycles::new(48),
        ..NocConfig::default()
    }
}

/// The outcome of one benchmark run.
pub struct PdesBenchRun {
    /// The engine report (residency, window/event counts).
    pub report: PdesReport,
    /// Deterministic digest of all simulated results; identical for every
    /// worker count.
    pub digest: String,
    /// Host wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
}

/// The window width for `islands` ring nodes: the minimum cross-island
/// NoC latency, derived from the routing model over one column per island.
pub fn lookahead(islands: u32) -> Cycles {
    let map = IslandMap::columns(
        Topology::new(islands.max(1), 1, islands.max(1)),
        islands.max(1),
    );
    map.lookahead(&ring_noc())
}

fn island_builder(id: u32, islands: u32) -> IslandBuilder {
    Box::new(move |ctx| {
        let sim = ctx.sim().clone();
        let sys = System::boot_in(
            sim.clone(),
            SystemConfig {
                pes: ISLAND_PES,
                fs_blocks: 1024,
                ..SystemConfig::default()
            },
        );

        // Real per-island work: concurrent programs writing and re-reading
        // files through m3fs, exercising kernel syscalls and DTU transfers
        // on every application PE.
        let jobs: Vec<_> = (0..ISLAND_JOBS)
            .map(|j| {
                sys.run_program("island-io", move |env| async move {
                    mount_m3fs(&env).await.unwrap();
                    let path = format!("/island{j}");
                    let body = vec![0x5au8; 65536];
                    vfs::write_all(&env, &path, &body).await.unwrap();
                    let mut total = 0i64;
                    for _ in 0..24 {
                        total += vfs::read_to_vec(&env, &path).await.unwrap().len() as i64;
                    }
                    total
                })
            })
            .collect();

        // Gateway receiver: counts and folds the predecessor's messages.
        let rx_port = ctx.port(0);
        let rx_count = Rc::new(Cell::new(0u64));
        let rx_sum = Rc::new(Cell::new(0u64));
        let rx_done = Notify::new();
        {
            let (count, sum, done) = (rx_count.clone(), rx_sum.clone(), rx_done.clone());
            sim.spawn_daemon("gateway-rx", async move {
                loop {
                    let (_at, bytes) = rx_port.recv().await;
                    let msg = wire::decode(&bytes).expect("well-formed boundary message");
                    count.set(count.get() + 1);
                    sum.set(sum.get() + msg.header.label);
                    done.notify_all();
                }
            });
        }

        // Regular task holding the island alive until every message from
        // the ring predecessor arrived.
        {
            let (count, done) = (rx_count.clone(), rx_done.clone());
            sim.spawn("gateway-rx-wait", async move {
                while count.get() < MSGS {
                    done.wait().await;
                }
            });
        }

        // Gateway sender: MSGS wire-encoded messages to the ring
        // successor, spaced SEND_STEP cycles apart.
        {
            let ctx = ctx.clone();
            let sim = sim.clone();
            sim.clone().spawn("gateway-tx", async move {
                for seq in 0..MSGS {
                    ctx.sim().sleep(Cycles::new(SEND_STEP)).await;
                    let msg = Message {
                        header: Header {
                            label: u64::from(id) * 1_000 + seq,
                            len: 8,
                            sender_pe: PeId::new(id),
                            sender_ep: EpId::new(0),
                            reply: None,
                        },
                        payload: seq.to_le_bytes().as_slice().into(),
                    };
                    let at = sim.now() + ctx.lookahead();
                    ctx.send(at, (id + 1) % islands, 0, wire::encode(&msg));
                }
            });
        }

        let finish: IslandFinish = Box::new(move |ctx| {
            let job_total: i64 = jobs
                .iter()
                .map(|j| j.try_take().expect("program finished before termination"))
                .sum();
            format!(
                "i{}:jobs={}:rx={}:rxsum={}:end={}",
                ctx.id(),
                job_total,
                rx_count.get(),
                rx_sum.get(),
                ctx.sim().now().as_u64(),
            )
        });
        finish
    })
}

/// Runs the ring benchmark with `islands` islands on `workers` threads.
pub fn run(islands: u32, workers: usize) -> PdesBenchRun {
    let cfg = PdesConfig {
        lookahead: lookahead(islands),
        workers,
    };
    let builders: Vec<IslandBuilder> = (0..islands).map(|i| island_builder(i, islands)).collect();
    #[expect(
        clippy::disallowed_types,
        reason = "host wall clock; simulated results are worker-count invariant"
    )]
    let start = std::time::Instant::now();
    let report = pdes::run(&cfg, builders);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let digest = format!(
        "{}|windows={}|events={}|end={}",
        report.outputs.join(";"),
        report.windows,
        report.events,
        report.end_time.as_u64(),
    );
    PdesBenchRun {
        report,
        digest,
        wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_digest_is_worker_count_invariant() {
        let serial = run(3, 1);
        let parallel = run(3, 3);
        assert_eq!(serial.digest, parallel.digest);
        // Every island received the full ring traffic.
        for st in &serial.report.islands {
            assert_eq!(st.events_in, MSGS);
            assert_eq!(st.events_out, MSGS);
        }
    }

    #[test]
    fn lookahead_is_positive_and_matches_the_map() {
        assert!(lookahead(2) > Cycles::ZERO);
        assert!(lookahead(4) > Cycles::ZERO);
    }
}
