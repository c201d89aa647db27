//! m3fs — the M3 filesystem (§4.5.8).
//!
//! m3fs is an in-memory filesystem implemented as a *service*, i.e. an
//! ordinary application. Its defining property is the data path: m3fs is
//! only contacted for metadata operations (open, close, mkdir, link, stat,
//! …); for data, the application asks m3fs for the *locations* of the file
//! fragments and receives **memory capabilities** over the session, then
//! reads and writes the file bytes directly through its DTU — the service
//! never touches the data ("somewhat similar to GoogleFS", §4.5.8).
//!
//! Files store their data as **extents** (start block, block count), like
//! ext4/btrfs, because the application receives access as contiguous pieces
//! of memory; larger extents mean fewer service contacts. Appends allocate
//! 256 blocks at once to limit fragmentation, and close truncates to the
//! used size (§4.5.8, evaluated in Figure 4).
//!
//! Substitution note (see `DESIGN.md`): file *data* lives in a DRAM region
//! the service owns, addressed block-wise exactly as the paper describes;
//! the metadata structures (superblock counters, bitmaps, inode table,
//! directories) are kept as native structures — the paper's m3fs is
//! in-memory as well, so no metadata block I/O is being skipped that the
//! evaluation would measure.

// Fallible paths return m3_base::error::Error; a panic here would take the
// whole simulated system down (clippy.toml exempts test code).
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod bitmap;
mod check;
mod client;
mod fs;
mod inode;
pub mod proto;
mod server;

pub use bitmap::BlockBitmap;
pub use check::{FsckReport, FS_MAGIC};
pub use client::{mount_m3fs, mount_m3fs_at, M3FsFileSystem};
pub use fs::{Extent, FsCore};
pub use inode::{Inode, InodeKind};
pub use server::{run_m3fs, run_m3fs_named, SetupKind, SetupNode};
