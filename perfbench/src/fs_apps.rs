//! `fs_apps`: rounds of concurrent benchmark applications on one kernel
//! and one m3fs.
//!
//! Why: it drives the libos vfs, m3fs metadata and extent allocation, DTU
//! memory-gate RDMA, pipes and NoC link waits (`contention: true`). It is
//! the write-heavy user of m3fs (tar, untar and every output file), set
//! beside the read-only `overcommit_paging`.
//!
//! A closed loop: each round a shell program starts one instance of every
//! application (cat|tr, tar, untar, find, sqlite) as a child VPE on its own
//! PE, and starts the next round when all of them exited. After each instance its output is
//! checked against a reference computed here from the same inputs and then
//! deleted, so the file system stays the same size from round to round.
//! After the run, m3fs checks its own consistency (fsck).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use m3::SystemConfig;
use m3_apps::{m3app, tarfmt, workload::file_content};
use m3_base::error::Result;
use m3_base::rand::Rng;
use m3_fs::{mount_m3fs, M3FsFileSystem, SetupNode};
use m3_kernel::protocol::PeRequest;
use m3_libos::{vfs, Env, Vpe};
use m3_noc::NocConfig;

use crate::measure::{nearest_rank, run_single, Outcome};
use crate::Options;

/// Rounds per repetition; every round runs each application once.
pub const ROUNDS: usize = 200;

/// Size of the cat|tr input file.
pub const CAT_BYTES: usize = 8 * 1024;

/// Files in the tree that tar packs and untar unpacks.
pub const TREE_FILES: u64 = 4;

/// Size of the `i`-th tree file: 2, 4, 6 and 8 KiB. Sizes are fixed so
/// that the seed varies what the applications read, not how much.
pub fn tree_file_bytes(i: u64) -> usize {
    2048 * (1 + i as usize % 4)
}

/// Directories and files of the tree find walks.
pub const FIND_DIRS: u64 = 6;
pub const FIND_FILES: u64 = 24;

/// Rows the sqlite workload inserts and reads back.
const SQLITE_ROWS: usize = 8;

/// The applications, one per PE, in slot order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    CatTr,
    Tar,
    Untar,
    Find,
    Sqlite,
}

impl App {
    /// Every application.
    pub const ALL: [App; 5] = [App::CatTr, App::Tar, App::Untar, App::Find, App::Sqlite];

    /// The application's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            App::CatTr => "cat_tr",
            App::Tar => "tar",
            App::Untar => "untar",
            App::Find => "find",
            App::Sqlite => "sqlite",
        }
    }
}

/// The generated inputs and their expected outputs.
pub struct Inputs {
    cat: Vec<u8>,
    tree: Vec<(String, Vec<u8>)>,
    archive: Vec<u8>,
    find_setup: Vec<SetupNode>,
    find_matches: Vec<String>,
}

impl Inputs {
    /// Everything `seed` determines.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let cat = file_content(rng.next_u64(), CAT_BYTES);
        let tree: Vec<(String, Vec<u8>)> = (0..TREE_FILES)
            .map(|i| {
                let content = file_content(rng.next_u64(), tree_file_bytes(i));
                (format!("/tree/f{i}.dat"), content)
            })
            .collect();
        // tar writes member names without the leading slash, in name order.
        let entries: Vec<(&str, &[u8], bool)> = tree
            .iter()
            .map(|(p, c)| (p.trim_start_matches('/'), c.as_slice(), false))
            .collect();
        let archive = tarfmt::build_archive(&entries);

        let mut dirs = vec!["/ftree".to_string()];
        let mut find_setup = vec![SetupNode::dir("/ftree")];
        for d in 0..FIND_DIRS {
            let parent = dirs[rng.next_below(dirs.len() as u64) as usize].clone();
            let path = format!("{parent}/d{d}");
            find_setup.push(SetupNode::dir(&path));
            dirs.push(path);
        }
        let mut find_matches = Vec::new();
        for f in 0..FIND_FILES {
            let parent = &dirs[rng.next_below(dirs.len() as u64) as usize];
            let ext = if rng.next_below(4) == 0 { "log" } else { "bin" };
            let path = format!("{parent}/f{f}.{ext}");
            if ext == "log" {
                find_matches.push(path.clone());
            }
            find_setup.push(SetupNode::file(&path, Vec::new()));
        }
        find_matches.sort();
        Inputs {
            cat,
            tree,
            archive,
            find_setup,
            find_matches,
        }
    }

    /// The m3fs image: inputs under `/in`, the tar tree, the find tree and
    /// an empty `/out` for the outputs.
    pub fn setup(&self) -> Vec<SetupNode> {
        let mut nodes = vec![
            SetupNode::dir("/in"),
            SetupNode::dir("/out"),
            SetupNode::dir("/tree"),
            SetupNode::file("/in/cat.txt", self.cat.clone()),
            SetupNode::file("/in/tree.tar", self.archive.clone()),
        ];
        nodes.extend(self.tree.iter().map(|(p, c)| SetupNode::file(p, c.clone())));
        nodes.extend(self.find_setup.iter().cloned());
        nodes
    }

    /// Content bytes of the image.
    pub fn image_bytes(&self) -> u64 {
        let tree: usize = self.tree.iter().map(|(_, c)| c.len()).sum();
        (self.cat.len() + self.archive.len() + tree) as u64
    }
}

/// Runs instance `round` of `app`; returns whether its output matched.
/// Only the application call itself is inside `latency`.
async fn instance(
    env: &Env,
    app: App,
    round: usize,
    inp: &Inputs,
    latency: &Cell<u64>,
) -> Result<bool> {
    let t = env.sim().now().as_u64();
    let stop = |env: &Env| latency.set(env.sim().now().as_u64() - t);
    match app {
        App::CatTr => {
            let out = format!("/out/cat{round}");
            m3app::cat_tr(env, "/in/cat.txt", &out).await?;
            stop(env);
            let want: Vec<u8> = inp
                .cat
                .iter()
                .map(|&b| if b == b'a' { b'b' } else { b })
                .collect();
            let ok = vfs::read_to_vec(env, &out).await? == want;
            vfs::unlink(env, &out).await?;
            Ok(ok)
        }
        App::Tar => {
            let out = format!("/out/t{round}.tar");
            m3app::tar_create(env, "/tree", &out).await?;
            stop(env);
            let ok = vfs::read_to_vec(env, &out).await? == inp.archive;
            vfs::unlink(env, &out).await?;
            Ok(ok)
        }
        App::Untar => {
            let dir = format!("/out/u{round}");
            vfs::mkdir(env, &dir).await?;
            m3app::tar_extract(env, "/in/tree.tar", &dir).await?;
            stop(env);
            let mut ok = vfs::read_dir(env, &dir).await?.len() == inp.tree.len();
            for (path, content) in &inp.tree {
                let name = path.rsplit('/').next().unwrap_or_default();
                let file = format!("{dir}/{name}");
                ok &= vfs::read_to_vec(env, &file).await? == *content;
                vfs::unlink(env, &file).await?;
            }
            vfs::rmdir(env, &dir).await?;
            Ok(ok)
        }
        App::Find => {
            let found = m3app::find(env, "/ftree", "log").await?;
            stop(env);
            Ok(found == inp.find_matches)
        }
        App::Sqlite => {
            let db = format!("/out/db{round}");
            let rows = m3app::sqlite(env, &db).await?;
            stop(env);
            vfs::unlink(env, &db).await?;
            Ok(rows == SQLITE_ROWS)
        }
    }
}

#[derive(Default)]
struct Log {
    out: Outcome,
    /// Completed instances as (app, latency).
    done: Vec<(App, u64)>,
    mount_cycles: u64,
    end: u64,
}

/// Runs instance `round` of `app` in a child VPE of `shell`: mount m3fs,
/// run the application, check and delete its output, exit. Records the
/// outcome in `log`.
async fn spawn_instance(
    shell: &Env,
    app: App,
    round: usize,
    inp: &Rc<Inputs>,
    log: &Rc<RefCell<Log>>,
) -> Result<Vpe> {
    let vpe = Vpe::new(shell, app.name(), PeRequest::Any).await?;
    let (inp, log) = (inp.clone(), log.clone());
    vpe.run(move |env| async move {
        let latency = Cell::new(0);
        let verdict = match mount_m3fs(&env).await {
            Ok(()) => instance(&env, app, round, &inp, &latency).await,
            Err(e) => Err(e),
        };
        let mut log = log.borrow_mut();
        log.out.attempted += 1;
        match verdict {
            Ok(true) => log.done.push((app, latency.get())),
            Ok(false) => log
                .out
                .fail(format!("{} round {round}: wrong output", app.name())),
            Err(e) => log.out.fail(format!("{} round {round}: {e:?}", app.name())),
        }
        log.end = log.end.max(env.sim().now().as_u64());
        0
    })
    .await?;
    Ok(vpe)
}

/// Runs one repetition.
pub fn run(opts: &Options) -> Outcome {
    let inputs = Rc::new(Inputs::new(opts.seed));
    let cfg = SystemConfig {
        // Kernel + m3fs + the shell + one PE per application + cat's child.
        pes: 4 + App::ALL.len(),
        fs_blocks: 4096,
        fs_setup: inputs.setup(),
        noc: NocConfig {
            contention: true,
            ..NocConfig::default()
        },
        ..SystemConfig::default()
    };
    let log = Rc::new(RefCell::new(Log::default()));
    let timed = run_single(cfg, opts.traced, |sys, gate, _t0| {
        let (gate, log, inp) = (gate.clone(), log.clone(), inputs.clone());
        sys.run_program("shell", move |env| async move {
            // The file system is up once the shell can mount it.
            let t = env.sim().now().as_u64();
            let mounted = mount_m3fs(&env).await;
            log.borrow_mut().mount_cycles = env.sim().now().as_u64() - t;
            gate.arrive().await;
            for round in 0..ROUNDS {
                let mut children = Vec::new();
                for app in App::ALL {
                    let child = match &mounted {
                        Ok(()) => spawn_instance(&env, app, round, &inp, &log).await,
                        Err(e) => Err(e.clone()),
                    };
                    match child {
                        Ok(vpe) => children.push(vpe),
                        Err(e) => {
                            let mut log = log.borrow_mut();
                            log.out.attempted += 1;
                            log.out
                                .fail(format!("{} round {round}: start {e:?}", app.name()));
                        }
                    }
                }
                for vpe in children {
                    let exited = vpe.wait().await;
                    if exited != Ok(0) || vpe.revoke().await.is_err() {
                        log.borrow_mut()
                            .out
                            .fail(format!("round {round}: child exit {exited:?}"));
                    }
                }
            }
            0
        });
    });
    let mut log = std::mem::take(&mut *log.borrow_mut());
    let out = &mut log.out;
    if timed.arrived != 1 {
        out.fail("the shell did not finish its set-up");
    }

    // Outside the timed section: m3fs checks its own invariants.
    let report = Rc::new(Cell::new(None));
    let slot = report.clone();
    timed.sys.run_program("fsck", move |env| async move {
        if let Ok(fs) = M3FsFileSystem::connect(&env).await {
            slot.set(fs.fsck(&env).await.ok());
        }
        0
    });
    timed.sys.run();
    let mut used_blocks = 0;
    match report.get() {
        Some((0, _, used)) => used_blocks = used,
        Some((errors, _, _)) => {
            for _ in 0..errors {
                out.fail("fsck found an inconsistency");
            }
        }
        None => out.fail("fsck did not complete"),
    }

    out.latencies = log.done.iter().map(|&(_, l)| l).collect();
    out.sim_cycles = log.end.saturating_sub(timed.t0);
    timed.record(out);
    for app in App::ALL {
        let mut lat: Vec<u64> = log
            .done
            .iter()
            .filter(|d| d.0 == app)
            .map(|d| d.1)
            .collect();
        lat.sort_unstable();
        out.sim.insert(
            format!("apps.{}_p50_cycles", app.name()),
            nearest_rank(&lat, 0.5) as f64,
        );
    }
    for (k, v) in [
        ("fs.mount_cycles", log.mount_cycles as f64),
        ("fs.used_blocks", used_blocks as f64),
        ("core.fs_image_bytes", inputs.image_bytes() as f64),
    ] {
        out.sim.insert(k.to_string(), v);
    }
    log.out
}
