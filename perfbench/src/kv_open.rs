//! `kv_open`: an open loop of m3-serve key-value requests.
//!
//! Why: the clients are independent users, so requests arrive on a fixed
//! schedule whatever the service does. Almost every executor poll is the
//! wake-up of a cost sleep, and the DTU carries small request and reply
//! messages; kernel work after set-up is small, and there is no NoC
//! contention, no `sched` and no `vm`.
//!
//! The offered rate is 80% of fig9's M3 capacity under its p99 SLO:
//! [`CLIENTS`] m3-serve clients (`Arrivals::Open`) each send one request,
//! due at a seeded time within one period, over fig9's four driver PEs.
//! Many clients with one request each, rather than few clients repeating a
//! period, keep the p99 from depending on one seed's arrival pattern. Each
//! request's latency counts from the time it was due, so a stalled driver
//! charges the wait to every request behind it. Every reply is checked
//! against the request it answers, and after the run the database file is
//! compared with a reference image built here from the same op stream.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use m3::SystemConfig;
use m3_apps::sqlwork::PAGE_SIZE;
use m3_base::error::{Code, Result};
use m3_base::Cycles;
use m3_fs::{mount_m3fs, SetupNode};
use m3_libos::{vfs, ClientSession, Env, SendGate};
use m3_serve::proto::{row_page, OBTAIN_REQ_GATE};
use m3_serve::{
    initial_db, run_kv_server, Arrivals, ClientSet, KvOp, KvReply, LoadPlan, Pending, DB_PATH,
    PAGES, SERVICE,
};
use m3_sim::{Component, Event, EventKind};

use crate::measure::{nearest_rank, run_single, Outcome, StartGate};
use crate::Options;

/// Driver programs (one PE each) the client population is spread over.
pub const DRIVERS: u64 = 4;

/// Simulated clients.
pub const CLIENTS: u64 = 32768;

/// Requests each client issues.
pub const REQS_PER_CLIENT: u64 = 1;

/// fig9's M3 capacity under its SLO, in requests per million cycles.
pub const FIG9_CAPACITY: f64 = 253.5;

/// Offered load as a share of [`FIG9_CAPACITY`].
pub const LOAD: f64 = 0.8;

/// fig9's p99 latency limit in cycles.
pub const SLO_P99: u64 = 100_000;

/// Per-client request period that offers `LOAD * FIG9_CAPACITY` requests
/// per million cycles over the whole population.
pub fn period() -> u64 {
    (CLIENTS as f64 * 1e6 / (FIG9_CAPACITY * LOAD)).round() as u64
}

/// The requests driver `driver` issues, in issue order: the earliest-due
/// request first, ties broken by client id, exactly the order of
/// `ClientSet::next_request`. Each client's stream depends only on its id
/// and the seed, so it is drawn from a one-client partition; in an open
/// loop the next request is due one period after the previous one,
/// whenever that completed.
///
/// Every put is stamped with a tag unique in the whole run (the generator
/// numbers puts per client), so the final database shows which put to a
/// key the service applied last.
pub fn schedule(load: &LoadPlan, driver: u64) -> Vec<Pending> {
    let mut requests = Vec::new();
    for client in (driver..load.clients).step_by(DRIVERS as usize) {
        let mut set = ClientSet::partition(load, client, load.clients);
        let mut n = 0;
        while let Some(mut p) = set.next_request() {
            set.complete(p.client, p.due, p.due);
            if let KvOp::Put { tag, .. } = &mut p.op {
                *tag = u32::try_from(client * load.reqs_per_client + n + 1)
                    .expect("fewer than 2^32 requests");
            }
            n += 1;
            requests.push(p);
        }
    }
    requests.sort_by_key(|p| (p.due, p.client));
    requests
}

/// The load plan of `seed`.
pub fn plan(seed: u64) -> LoadPlan {
    LoadPlan {
        clients: CLIENTS,
        reqs_per_client: REQS_PER_CLIENT,
        seed,
        arrivals: Arrivals::Open {
            period: Cycles::new(period()),
        },
    }
}

#[derive(Default)]
struct Log {
    out: Outcome,
    /// Cycles between a request's due time and its issue.
    lateness: Vec<u64>,
    /// Cycles of each `SendGate::call`.
    calls: Vec<u64>,
    /// Completed puts as (completion cycle, key, tag).
    puts: Vec<(u64, u64, u32)>,
    end: u64,
}

/// The reply size the service must report for `op`.
fn expected_bytes(op: &KvOp) -> u64 {
    match op {
        KvOp::Get { .. } | KvOp::Put { .. } => PAGE_SIZE as u64,
        KvOp::Scan => PAGES * PAGE_SIZE as u64,
    }
}

async fn connect(env: &Env) -> Result<SendGate> {
    // The service registers concurrently with program start; a service
    // that never appears fails every request of this driver.
    let mut attempts = 0;
    let session = loop {
        match ClientSession::connect(env, SERVICE, 0).await {
            Ok(s) => break s,
            Err(e) if e.code() == Code::InvService && attempts < 1_000 => {
                attempts += 1;
                env.sim().sleep(Cycles::new(1_000)).await;
            }
            Err(e) => return Err(e),
        }
    };
    let (sels, _) = session.obtain(1, &[OBTAIN_REQ_GATE]).await?;
    Ok(SendGate::bind(env, sels[0]))
}

async fn drive(
    env: Env,
    requests: Vec<Pending>,
    gate: StartGate,
    t0: Rc<Cell<u64>>,
    log: Rc<RefCell<Log>>,
) {
    let sgate = connect(&env).await;
    gate.arrive().await;
    let t0 = t0.get();
    for p in requests {
        let due = t0 + p.due.as_u64();
        if env.sim().now().as_u64() < due {
            env.sim().sleep_until(Cycles::new(due)).await;
        }
        let issued = env.sim().now().as_u64();
        let reply = match &sgate {
            Ok(g) => g
                .call(&p.op.to_bytes())
                .await
                .and_then(|m| KvReply::from_bytes(&m.payload)),
            Err(e) => Err(e.clone()),
        };
        let now = env.sim().now().as_u64();
        let latency = now - due;
        let mut log = log.borrow_mut();
        log.out.attempted += 1;
        log.end = log.end.max(now);
        log.lateness.push(issued - due);
        match reply {
            Ok(r) if r == KvReply::ok(expected_bytes(&p.op)) => {
                // The same request span the m3-serve driver records.
                let pe = env.pe();
                env.sim().tracer().record_with(|| Event {
                    at: Cycles::new(due),
                    dur: Cycles::new(latency),
                    pe: Some(pe),
                    comp: Component::Serve,
                    kind: EventKind::ServeReq {
                        client: p.client,
                        op: p.op.name().to_string(),
                    },
                });
                log.out.latencies.push(latency);
                log.calls.push(now - issued);
                if let KvOp::Put { key, tag } = p.op {
                    log.puts.push((now, key, tag));
                }
            }
            Ok(r) => log.out.fail(format!("{:?} got {r:?}", p.op)),
            Err(e) => log.out.fail(format!("{:?} failed: {e:?}", p.op)),
        }
    }
}

/// The database image after applying `puts` in completion order. The
/// service handles one request at a time, so completion order is its
/// service order.
fn reference_db(puts: &mut [(u64, u64, u32)]) -> Vec<u8> {
    puts.sort_by_key(|p| p.0);
    let mut db = initial_db();
    for &(_, key, tag) in puts.iter() {
        let at = (1 + key as usize) * PAGE_SIZE;
        db[at..at + PAGE_SIZE].copy_from_slice(&row_page(key, tag));
    }
    db
}

/// Runs one repetition.
pub fn run(opts: &Options) -> Outcome {
    let cfg = SystemConfig {
        // Kernel + m3fs + the kv service + the driver PEs.
        pes: 3 + DRIVERS as usize,
        fs_setup: vec![SetupNode::file(DB_PATH, initial_db())],
        ..SystemConfig::default()
    };
    let log = Rc::new(RefCell::new(Log::default()));
    // The inputs: every driver's request schedule.
    let load = plan(opts.seed);
    let mut schedules: Vec<Vec<Pending>> = (0..DRIVERS).map(|d| schedule(&load, d)).collect();
    let timed = run_single(cfg, opts.traced, |sys, gate, t0| {
        let info = sys
            .kernel()
            .create_root("kv-server", None)
            .expect("a free PE for the kv service");
        let srv_env = Env::new(sys.kernel(), &info, sys.registry().clone());
        sys.sim().spawn_daemon("kv-server", async move {
            // A failing service shows as failed requests.
            let _ = run_kv_server(srv_env).await;
        });
        for (d, requests) in schedules.drain(..).enumerate() {
            let (gate, t0, log) = (gate.clone(), t0.clone(), log.clone());
            sys.run_program(&format!("kv-driver{d}"), move |env| async move {
                drive(env, requests, gate, t0, log).await;
                0
            });
        }
    });
    let mut log = std::mem::take(&mut *log.borrow_mut());
    let out = &mut log.out;
    if timed.arrived != DRIVERS as usize {
        out.fail("not every driver finished its set-up");
    }

    // Outside the timed section: read the database back and compare it
    // with the reference image.
    let want = reference_db(&mut log.puts);
    let check = timed.sys.run_program("kv-check", move |env| async move {
        if mount_m3fs(&env).await.is_err() {
            return -1;
        }
        match vfs::read_to_vec(&env, DB_PATH).await {
            Ok(got) if got.len() == want.len() => got
                .chunks(PAGE_SIZE)
                .zip(want.chunks(PAGE_SIZE))
                .filter(|(g, w)| g != w)
                .count() as i64,
            _ => -1,
        }
    });
    timed.sys.run();
    match check.try_take() {
        Some(0) => {}
        Some(pages) if pages > 0 => {
            for _ in 0..pages {
                out.fail("database page differs from the reference");
            }
        }
        _ => out.fail("database could not be read back"),
    }

    out.sim_cycles = log.end.saturating_sub(timed.t0);
    timed.record(out);
    log.lateness.sort_unstable();
    log.calls.sort_unstable();
    let completed = out.latencies.len() as f64;
    let slo_misses = out.latencies.iter().filter(|&&l| l > SLO_P99).count() as u64 + out.failed;
    for (k, v) in [
        ("libos.sendgate_calls", out.attempted as f64),
        (
            "libos.sendgate_call_p99_cycles",
            nearest_rank(&log.calls, 0.99) as f64,
        ),
        ("serve.requests", completed),
        (
            "serve.lateness_p99_cycles",
            nearest_rank(&log.lateness, 0.99) as f64,
        ),
        (
            "serve.slo_miss_ratio",
            slo_misses as f64 / out.attempted.max(1) as f64,
        ),
        ("core.fs_image_bytes", initial_db().len() as f64),
    ] {
        out.sim.insert(k.to_string(), v);
    }
    log.out
}
