//! `overcommit_paging`: time-multiplexed clients mixing m3fs reads with
//! demand-paged memory accesses.
//!
//! Why: it is the only workload that exercises `sched` context switches,
//! DTU save and restore, and the `vm` pager and swap. It uses m3fs
//! read-only.
//!
//! A closed loop: one `System` with `overcommit`, `dirty_switches` and
//! `vm_resident_pages` set runs [`CLIENTS_PER_PE`] client VPEs per
//! application PE. Each client interleaves reads of one shared m3fs file
//! with a seeded read/write mix on its own demand-paged `AddrSpace`, whose
//! working set is larger than its resident cap, and finally reads its whole
//! working set back. Every read is compared with a flat-memory reference
//! kept here.

use std::cell::RefCell;
use std::rc::Rc;

use m3::SystemConfig;
use m3_apps::workload::file_content;
use m3_base::error::Result;
use m3_base::rand::Rng;
use m3_base::Perm;
use m3_fs::{mount_m3fs, SetupNode};
use m3_kernel::protocol::PeRequest;
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::AddrSpace;
use m3_libos::{vfs, Env, Vpe};

use crate::measure::{nearest_rank, run_single, Outcome};
use crate::Options;

/// Application PEs the clients share.
pub const CLIENT_PES: usize = 4;

/// Client VPEs per application PE.
pub const CLIENTS_PER_PE: usize = 8;

/// Pages in each client's working set.
pub const WORKING_SET: u64 = 32;

/// Resident frames per address space (half the working set).
pub const RESIDENT_PAGES: usize = 8;

/// Iterations per client; each is one file read and [`ACCESSES`] page
/// accesses.
pub const ITERATIONS: usize = 32;

/// Page accesses per iteration.
pub const ACCESSES: usize = 4;

/// Size of the shared file.
pub const FILE_BYTES: usize = 2048;

/// Bytes moved by one page access.
const ACCESS_BYTES: u64 = 8;

/// Path of the shared file.
const SHARED: &str = "/shared";

#[derive(Default)]
struct Log {
    out: Outcome,
    page_access: Vec<u64>,
    file_read: Vec<u64>,
    tlb_misses: u64,
    mount_cycles: u64,
    end: u64,
}

impl Log {
    fn record(&mut self, now: u64, latency: u64, ok: Result<bool>, what: &str, file: bool) {
        self.out.attempted += 1;
        self.end = self.end.max(now);
        match ok {
            Ok(true) => {
                self.out.latencies.push(latency);
                if file {
                    &mut self.file_read
                } else {
                    &mut self.page_access
                }
                .push(latency);
            }
            Ok(false) => self
                .out
                .fail(format!("{what}: bytes differ from the reference")),
            Err(e) => self.out.fail(format!("{what}: {e:?}")),
        }
    }
}

/// One client: `ITERATIONS` rounds of a file read plus page accesses, then
/// a read-back of the whole working set.
async fn client(env: Env, id: u64, seed: u64, shared: Rc<Vec<u8>>, log: Rc<RefCell<Log>>) -> i64 {
    let mounted = mount_m3fs(&env).await;
    let mut rng = Rng::new(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut aspace = AddrSpace::new(&env, Perm::RW);
    let mut shadow = vec![0u8; (WORKING_SET * PAGE_SIZE) as usize];
    let now = |env: &Env| env.sim().now().as_u64();
    for _ in 0..ITERATIONS {
        let t = now(&env);
        let read = match &mounted {
            Ok(()) => vfs::read_to_vec(&env, SHARED).await.map(|d| d == *shared),
            Err(e) => Err(e.clone()),
        };
        log.borrow_mut()
            .record(now(&env), now(&env) - t, read, "file read", true);
        for _ in 0..ACCESSES {
            let virt = rng.next_below(WORKING_SET * PAGE_SIZE / ACCESS_BYTES) * ACCESS_BYTES;
            let range = virt as usize..(virt + ACCESS_BYTES) as usize;
            let t = now(&env);
            let ok = if rng.next_below(2) == 0 {
                let data = rng.next_u64().to_le_bytes();
                shadow[range].copy_from_slice(&data);
                aspace.write(virt, &data).await.map(|()| true)
            } else {
                let mut data = [0u8; ACCESS_BYTES as usize];
                aspace
                    .read(virt, &mut data)
                    .await
                    .map(|()| data[..] == shadow[range])
            };
            log.borrow_mut()
                .record(now(&env), now(&env) - t, ok, "page access", false);
        }
    }
    for page in 0..WORKING_SET {
        let mut data = vec![0u8; PAGE_SIZE as usize];
        let range = (page * PAGE_SIZE) as usize..((page + 1) * PAGE_SIZE) as usize;
        let t = now(&env);
        let ok = aspace
            .read(page * PAGE_SIZE, &mut data)
            .await
            .map(|()| data[..] == shadow[range]);
        log.borrow_mut()
            .record(now(&env), now(&env) - t, ok, "page read-back", false);
    }
    log.borrow_mut().tlb_misses += aspace.tlb_misses();
    0
}

/// Runs one repetition.
pub fn run(opts: &Options) -> Outcome {
    let seed = opts.seed;
    let shared = Rc::new(file_content(seed, FILE_BYTES));
    let cfg = SystemConfig {
        // Kernel + m3fs + the driver + the shared application PEs.
        pes: 3 + CLIENT_PES,
        fs_setup: vec![SetupNode::file(SHARED, shared.to_vec())],
        overcommit: true,
        dirty_switches: true,
        vm_resident_pages: Some(RESIDENT_PAGES),
        ..SystemConfig::default()
    };
    let log = Rc::new(RefCell::new(Log::default()));
    let timed = run_single(cfg, opts.traced, |sys, gate, _t0| {
        let (gate, log, shared) = (gate.clone(), log.clone(), shared.clone());
        sys.run_program("driver", move |env| async move {
            let t = env.sim().now().as_u64();
            let mounted = mount_m3fs(&env).await;
            log.borrow_mut().mount_cycles = env.sim().now().as_u64() - t;
            gate.arrive().await;
            if mounted.is_err() {
                log.borrow_mut().out.fail("driver could not mount m3fs");
            }
            let mut vpes = Vec::new();
            for id in 0..(CLIENT_PES * CLIENTS_PER_PE) as u64 {
                let (clog, shared) = (log.clone(), shared.clone());
                let started = match Vpe::new(&env, &format!("client{id}"), PeRequest::Any).await {
                    Ok(vpe) => vpe
                        .run(move |cenv| client(cenv, id, seed, shared, clog))
                        .await
                        .map(|()| vpe),
                    Err(e) => Err(e),
                };
                match started {
                    Ok(vpe) => vpes.push(vpe),
                    Err(e) => log
                        .borrow_mut()
                        .out
                        .fail(format!("client{id} start: {e:?}")),
                }
            }
            for vpe in vpes {
                let exited = vpe.wait().await;
                if exited != Ok(0) || vpe.revoke().await.is_err() {
                    log.borrow_mut().out.fail(format!("client exit {exited:?}"));
                }
            }
            0
        });
    });
    let mut log = std::mem::take(&mut *log.borrow_mut());
    let out = &mut log.out;
    if timed.arrived != 1 {
        out.fail("the driver did not finish its set-up");
    }
    out.sim_cycles = log.end.saturating_sub(timed.t0);
    timed.record(out);
    log.page_access.sort_unstable();
    log.file_read.sort_unstable();
    let accesses = log.page_access.len().max(1) as f64;
    for (k, v) in [
        ("vm.tlb_miss_ratio", log.tlb_misses as f64 / accesses),
        (
            "vm.access_p50_cycles",
            nearest_rank(&log.page_access, 0.5) as f64,
        ),
        (
            "vm.access_p99_cycles",
            nearest_rank(&log.page_access, 0.99) as f64,
        ),
        (
            "libos.file_read_p50_cycles",
            nearest_rank(&log.file_read, 0.5) as f64,
        ),
        (
            "libos.file_read_p99_cycles",
            nearest_rank(&log.file_read, 0.99) as f64,
        ),
        ("fs.mount_cycles", log.mount_cycles as f64),
        ("core.fs_image_bytes", FILE_BYTES as f64),
    ] {
        out.sim.insert(k.to_string(), v);
    }
    log.out
}
