//! `shard_pdes`: two kernel shards on two PDES islands, shaped like fig10.
//!
//! Why: without this workload the `pdes` windows and barriers and the
//! kernel's kernel-to-kernel (ktk) path go unmeasured, and those are what
//! the PDES and timer work targets. Simulated results must not depend on
//! the worker count.
//!
//! A closed loop: on each shard [`PLACERS`] placer programs run rounds of
//! create → start → wait → revoke against their local kernel, and one
//! spiller asks for the FFT-accelerator PE type that only the last shard
//! hosts, so every spiller round on the other shard is placed across
//! shards through ktk. An op is one round. Each started child computes for
//! a seeded number of cycles and exits with a code derived from its round,
//! which the placer checks.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::rand::Rng;
use m3_base::{Cycles, PeId};
use m3_kernel::protocol::PeRequest;
use m3_libos::{Env, Vpe};
use m3_noc::{IslandMap, NocConfig, Topology};
use m3_platform::PeType;
use m3_sim::pdes::{self, IslandBuilder, IslandFinish, PdesConfig};

use crate::measure::{enable_trace, nearest_rank, Counters, Outcome, TraceCounts};
use crate::Options;

/// Kernel shards, one per PDES island.
pub const SHARDS: u32 = 2;

/// PEs per shard (fig10's smallest slice).
pub const PES_PER_SHARD: usize = 16;

/// Placer programs per shard.
pub const PLACERS: usize = 4;

/// Create → start → wait → revoke rounds per placer.
pub const ROUNDS: usize = 256;

/// Accelerator placements of each shard's spiller.
pub const SPILL_ROUNDS: usize = 16;

/// FFT-accelerator PEs, hosted only by the last shard.
pub const ACCEL_PES: usize = 4;

/// Bounds of a started child's seeded compute time, in cycles.
pub const CHILD_CYCLES: (u64, u64) = (1_000, 10_000);

/// The inter-shard NoC of fig10: long-haul links between islands.
fn shard_noc() -> NocConfig {
    NocConfig {
        hop_latency: Cycles::new(48),
        ..NocConfig::default()
    }
}

/// The conservative window width for [`SHARDS`] islands.
pub fn lookahead() -> Cycles {
    IslandMap::columns(Topology::new(SHARDS, 1, SHARDS), SHARDS).lookahead(&shard_noc())
}

/// What one island reports back from its worker thread.
#[derive(Default)]
struct IslandLog {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    latencies: Vec<u64>,
    end: u64,
}

impl IslandLog {
    fn record(&mut self, now: u64, latency: u64, ok: Result<(), String>) {
        self.attempted += 1;
        self.end = self.end.max(now);
        match ok {
            Ok(()) => self.latencies.push(latency),
            Err(what) => {
                self.failed += 1;
                self.notes.push(what);
            }
        }
    }
}

/// The compute times of one placer's children: [`ROUNDS`] values evenly
/// spread over [`CHILD_CYCLES`], in an order shuffled by `seed`. Every
/// placer does the same total work; the seed decides how the rounds of
/// different placers line up.
fn child_work(seed: u64) -> Vec<u64> {
    let (lo, hi) = CHILD_CYCLES;
    let mut work: Vec<u64> = (0..ROUNDS as u64)
        .map(|r| lo + r * (hi - lo) / (ROUNDS as u64 - 1))
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..work.len()).rev() {
        work.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    work
}

/// One placer round: create a VPE, start a child that computes `work`
/// cycles and exits with `code`, wait for it, revoke it.
async fn round(env: &Env, work: u64, code: i64) -> Result<(), String> {
    let vpe = Vpe::new(env, "w", PeRequest::Same)
        .await
        .map_err(|e| format!("create: {e:?}"))?;
    vpe.run(move |cenv| async move {
        cenv.compute(Cycles::new(work)).await;
        code
    })
    .await
    .map_err(|e| format!("start: {e:?}"))?;
    match vpe.wait().await {
        Ok(c) if c == code => {}
        other => return Err(format!("wait: {other:?}, expected {code}")),
    }
    vpe.revoke().await.map_err(|e| format!("revoke: {e:?}"))
}

/// The island builder of shard `id`: boots its system, wires it to the
/// peer shard, starts the placers and the spiller.
fn island(id: u32, opts: Options, ready: Arc<Mutex<(Option<Instant>, f64)>>) -> IslandBuilder {
    Box::new(move |ctx| {
        let sim = ctx.sim().clone();
        let accel = if id == SHARDS - 1 { ACCEL_PES } else { 0 };
        let booting = Instant::now();
        let sys = System::boot_in(
            sim.clone(),
            SystemConfig {
                pes: PES_PER_SHARD - accel,
                accel_pes: accel,
                fs_blocks: 1024,
                ..SystemConfig::default()
            },
        );
        let boot_s = booting.elapsed().as_secs_f64();
        if opts.traced {
            enable_trace(&sim);
        }
        // ktk bytes travel as timestamped island-boundary events on port
        // 0; a gateway daemon pumps arrivals into the kernel.
        let peers: Vec<(u32, PeId)> = (0..SHARDS)
            .filter(|s| *s != id)
            .map(|s| (s, PeId::new(0)))
            .collect();
        let send_ctx = ctx.clone();
        sys.kernel().set_shard(
            id,
            SHARDS,
            &peers,
            Box::new(move |dst, bytes| {
                let at = send_ctx.sim().now() + send_ctx.lookahead();
                send_ctx.send(at, dst, 0, bytes);
            }),
        );
        let port = ctx.port(0);
        let kernel = sys.kernel().clone();
        sim.spawn_daemon("ktk-gateway", async move {
            loop {
                let (_at, bytes) = port.recv().await;
                kernel.ktk_deliver(&bytes);
            }
        });
        sys.kernel().ktk_hello();

        let log = std::rc::Rc::new(std::cell::RefCell::new(IslandLog::default()));
        for p in 0..PLACERS as u64 {
            let log = log.clone();
            let work = child_work(
                opts.seed ^ (u64::from(id) << 32 | p).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            sys.run_program("placer", move |env| async move {
                for (r, work) in work.into_iter().enumerate() {
                    let t = env.sim().now().as_u64();
                    let ok = round(&env, work, 1 + r as i64).await;
                    let now = env.sim().now().as_u64();
                    log.borrow_mut().record(now, now - t, ok);
                }
                0
            });
        }
        let spill_log = log.clone();
        sys.run_program("spiller", move |env| async move {
            for _ in 0..SPILL_ROUNDS {
                let t = env.sim().now().as_u64();
                let ok = match Vpe::new(&env, "fft", PeRequest::Type(PeType::FftAccel)).await {
                    Ok(vpe) => vpe
                        .revoke()
                        .await
                        .map_err(|e| format!("spill revoke: {e:?}")),
                    // Every accelerator taken is a refusal, counted as such.
                    Err(e) if e.code() == Code::NoFreePe => {
                        Err("spill refused: NoFreePe".to_string())
                    }
                    Err(e) => Err(format!("spill: {e:?}")),
                };
                let now = env.sim().now().as_u64();
                spill_log.borrow_mut().record(now, now - t, ok);
            }
            0
        });
        {
            let mut r = ready
                .lock()
                .expect("no island panicked holding the ready lock");
            r.0 = Some(Instant::now());
            r.1 += boot_s;
        }

        let finish: IslandFinish = Box::new(move |ctx| {
            let mut trace = TraceCounts::default();
            if opts.traced {
                trace.count_sim(ctx.sim());
            }
            let log = std::mem::take(&mut *log.borrow_mut());
            let lat: Vec<String> = log.latencies.iter().map(u64::to_string).collect();
            let mut lines = vec![
                Counters::read(&sys).encode(),
                trace.encode(),
                lat.join(","),
                format!("{} {} {}", log.attempted, log.failed, log.end),
            ];
            lines.extend(log.notes.iter().map(|n| n.replace('\n', " ")));
            lines.join("\n")
        });
        finish
    })
}

/// Runs one repetition on `opts.workers` PDES workers.
pub fn run(opts: &Options) -> Outcome {
    let ready = Arc::new(Mutex::new((None, 0.0)));
    let cfg = PdesConfig {
        lookahead: lookahead(),
        workers: opts.workers,
    };
    let builders: Vec<IslandBuilder> = (0..SHARDS)
        .map(|i| island(i, *opts, ready.clone()))
        .collect();
    let gauges = m3_sim::gauges::snapshot();
    let setup = Instant::now();
    let report = pdes::run(&cfg, builders);
    let done = Instant::now();
    let gauges_after = m3_sim::gauges::snapshot();
    let (built, boot_s) = *ready.lock().expect("islands finished");
    let built = built.unwrap_or(setup);

    let mut out = Outcome {
        setup_s: (built - setup).as_secs_f64(),
        wall_s: (done - built).as_secs_f64(),
        boot_s,
        ..Outcome::default()
    };
    let mut counters = Counters::default();
    let mut trace = TraceCounts::default();
    for island in &report.outputs {
        let mut lines = island.lines();
        counters.add(&Counters::decode(lines.next().unwrap_or_default()));
        trace.add(&TraceCounts::decode(lines.next().unwrap_or_default()));
        let lat = lines.next().unwrap_or_default();
        out.latencies
            .extend(lat.split(',').filter_map(|l| l.parse::<u64>().ok()));
        let nums: Vec<u64> = lines
            .next()
            .unwrap_or_default()
            .split(' ')
            .filter_map(|n| n.parse().ok())
            .collect();
        if let [attempted, failed, end] = nums[..] {
            out.attempted += attempted;
            out.sim_cycles = out.sim_cycles.max(end);
            for note in lines.by_ref().take(failed as usize) {
                out.fail(note);
            }
        } else {
            out.fail("island reported no operation counts");
        }
    }
    out.cycles_advanced = report.islands.iter().map(|i| i.final_now.as_u64()).sum();
    out.record_host(&gauges, &gauges_after);
    out.sim.extend(counters.layers());
    out.trace = trace.metrics();
    let mut rounds = out.latencies.clone();
    rounds.sort_unstable();
    let busy: u64 = report.islands.iter().map(|i| i.advanced.as_u64()).sum();
    let waited: u64 = report.islands.iter().map(|i| i.barrier_wait.as_u64()).sum();
    for (k, v) in [
        ("pdes.windows", report.windows as f64),
        ("pdes.events", report.events as f64),
        (
            "pdes.events_per_window",
            report.events as f64 / report.windows.max(1) as f64,
        ),
        ("pdes.busy_cycles", busy as f64),
        ("pdes.barrier_wait_cycles", waited as f64),
        ("pdes.abandoned", report.abandoned as f64),
        (
            "kernel.vpe_round_p50_cycles",
            nearest_rank(&rounds, 0.5) as f64,
        ),
        (
            "kernel.vpe_round_p99_cycles",
            nearest_rank(&rounds, 0.99) as f64,
        ),
    ] {
        out.sim.insert(k.to_string(), v);
    }
    out
}
