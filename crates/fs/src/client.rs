//! The m3fs client: the libm3 side of the filesystem (§4.5.8).
//!
//! "libm3 offers POSIX-like abstractions (open, read, write, seek, close) to
//! the application. The application uses a local buffer for reading and
//! writing, and libm3 will translate that into memory reads or writes at the
//! appropriate location and will, if necessary, request further memory
//! capabilities."

use std::cell::Cell;
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::Cycles;
use m3_kernel::protocol::SyscallReply;
use m3_libos::vfs::{DirEntry, File, FileInfo, FileSystem, MapExtent, OpenFlags, SeekMode};
use m3_libos::{BoxFuture, ClientSession, Env, MemGate, SendGate};

use crate::proto::{
    FsckReply, LocateArgs, LocateReply, MetaRequest, Obtain, OpenReply, ReadDirReply, StatReply,
    NO_TRUNCATE,
};

/// Local bookkeeping cost of a seek (most seeks stay within the already
/// obtained extents, §4.5.8).
const SEEK_COST: Cycles = Cycles::new(20);

/// Client-side (libm3) cycle charges per metadata operation: argument
/// marshalling, reply parsing, VFS bookkeeping. Together with the
/// service-side costs in `m3-fs::server` these calibrate the Figure 5
/// application benchmarks; keeping the service share small is what lets a
/// single m3fs instance serve many clients (§5.7).
mod ccosts {
    use m3_base::Cycles;

    /// `stat`: marshal path, parse the info reply, fill the caller's
    /// structure.
    pub const STAT: Cycles = Cycles::new(850);
    /// `open`: flags handling, file-object setup.
    pub const OPEN: Cycles = Cycles::new(350);
    /// `close`: flushing the handle state.
    pub const CLOSE: Cycles = Cycles::new(250);
    /// `read_dir`: entry parsing per reply page.
    pub const READDIR_PAGE: Cycles = Cycles::new(300);
    /// Directory mutations.
    pub const META_MUT: Cycles = Cycles::new(300);
}

struct FsInner {
    session: ClientSession,
    sgate: SendGate,
}

/// A connected m3fs client, mountable into the VFS.
pub struct M3FsFileSystem {
    inner: Rc<FsInner>,
}

impl std::fmt::Debug for M3FsFileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M3FsFileSystem({:?})", self.inner.session)
    }
}

impl M3FsFileSystem {
    /// Opens a session with the `m3fs` service and obtains the meta-channel
    /// send gate.
    ///
    /// # Errors
    ///
    /// Fails if the service is unavailable.
    pub async fn connect(env: &Env) -> Result<M3FsFileSystem> {
        Self::connect_named(env, "m3fs").await
    }

    /// Connects to a filesystem service registered under `name` (see
    /// `run_m3fs_named`).
    ///
    /// # Errors
    ///
    /// Fails if the service is unavailable.
    pub async fn connect_named(env: &Env, name: &str) -> Result<M3FsFileSystem> {
        let session = ClientSession::connect(env, name, 0).await?;
        let (sels, _) = session.obtain(1, &Obtain::MetaGate.to_bytes()).await?;
        let sgate = SendGate::bind(env, sels[0]);
        Ok(M3FsFileSystem {
            inner: Rc::new(FsInner { session, sgate }),
        })
    }

    async fn meta(&self, env: &Env, req: MetaRequest) -> Result<Vec<u8>> {
        env.compute(m3_libos::costs::RPC_PREP).await;
        let msg = self.inner.sgate.call(&req.to_bytes()).await?;
        SyscallReply::from_bytes(&msg.payload)?.into_result()
    }

    /// Runs a consistency check on the service side; returns
    /// (error count, inodes, used blocks).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub async fn fsck(&self, env: &Env) -> Result<(u32, u64, u64)> {
        let data = self.meta(env, MetaRequest::Fsck).await?;
        let r = FsckReply::from_bytes(&data)?;
        Ok((r.errors, r.inodes, r.used_blocks))
    }

    /// Opens a file with an explicit append-allocation hint in blocks
    /// (used by the Figure 4 experiment; 0 = the 256-block default).
    ///
    /// # Errors
    ///
    /// Propagates service errors.
    pub async fn open_file(
        &self,
        env: &Env,
        path: &str,
        flags: OpenFlags,
        alloc_hint: u64,
    ) -> Result<RegularFile> {
        env.compute(ccosts::OPEN).await;
        let data = self
            .meta(
                env,
                MetaRequest::Open {
                    path: path.to_string(),
                    flags: flags_bits(flags),
                },
            )
            .await?;
        let opened = OpenReply::from_bytes(&data)?;
        Ok(RegularFile {
            fs: self.inner.clone(),
            env: env.clone(),
            fd: opened.fd,
            pos: 0,
            size: opened.size,
            readable: flags.readable(),
            writable: flags.writable(),
            alloc_hint,
            cached: None,
            closed: Cell::new(false),
        })
    }
}

fn flags_bits(flags: OpenFlags) -> u32 {
    let mut bits = 0;
    if flags.readable() {
        bits |= 0b0001;
    }
    if flags.writable() {
        bits |= 0b0010;
    }
    if flags.create() {
        bits |= 0b0100;
    }
    if flags.trunc() {
        bits |= 0b1000;
    }
    bits
}

struct CachedExtent {
    mem: MemGate,
    file_off: u64,
    len: u64,
}

/// An open m3fs file: reads and writes go directly to the file's fragments
/// in DRAM via memory capabilities obtained on demand.
pub struct RegularFile {
    fs: Rc<FsInner>,
    env: Env,
    fd: u64,
    pos: u64,
    size: u64,
    readable: bool,
    writable: bool,
    alloc_hint: u64,
    cached: Option<CachedExtent>,
    closed: Cell<bool>,
}

impl std::fmt::Debug for RegularFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RegularFile(fd={}, pos={}, size={})",
            self.fd, self.pos, self.size
        )
    }
}

impl RegularFile {
    /// Current file size as seen by this handle.
    pub fn size(&self) -> u64 {
        self.size
    }

    async fn locate(&mut self, write: bool) -> Result<()> {
        let args = LocateArgs {
            fd: self.fd,
            offset: self.pos,
            write,
            want_blocks: self.alloc_hint,
        };
        let (sels, reply) = self
            .fs
            .session
            .obtain(1, &Obtain::Locate(args).to_bytes())
            .await?;
        let info = LocateReply::from_bytes(&reply)?;
        self.cached = Some(CachedExtent {
            mem: MemGate::bind(&self.env, sels[0]),
            file_off: info.ext_file_off,
            len: info.ext_bytes,
        });
        Ok(())
    }

    fn cached_covers(&self, pos: u64) -> bool {
        self.cached
            .as_ref()
            .is_some_and(|c| pos >= c.file_off && pos < c.file_off + c.len)
    }

    async fn read_inner(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.env.compute(m3_libos::costs::FILE_OP_ENTRY).await;
        if !self.readable {
            return Err(Error::new(Code::NoAccess).with_msg("not open for reading"));
        }
        if self.pos >= self.size || buf.is_empty() {
            return Ok(0);
        }
        self.env.compute(m3_libos::costs::FILE_LOCATE).await;
        if !self.cached_covers(self.pos) {
            self.locate(false).await?;
        }
        let c = self
            .cached
            .as_ref()
            .ok_or_else(|| Error::new(Code::Internal).with_msg("no cached extent"))?;
        let ext_end = c.file_off + c.len;
        let n = (buf.len() as u64)
            .min(ext_end - self.pos)
            .min(self.size - self.pos);
        c.mem
            .read_into(self.pos - c.file_off, &mut buf[..n as usize])
            .await?;
        self.pos += n;
        Ok(n as usize)
    }

    async fn write_inner(&mut self, data: &[u8]) -> Result<usize> {
        self.env.compute(m3_libos::costs::FILE_OP_ENTRY).await;
        if !self.writable {
            return Err(Error::new(Code::NoAccess).with_msg("not open for writing"));
        }
        if data.is_empty() {
            return Ok(0);
        }
        self.env.compute(m3_libos::costs::FILE_LOCATE).await;
        if !self.cached_covers(self.pos) {
            self.locate(true).await?;
        }
        let c = self
            .cached
            .as_ref()
            .ok_or_else(|| Error::new(Code::Internal).with_msg("no cached extent"))?;
        let ext_end = c.file_off + c.len;
        let n = (data.len() as u64).min(ext_end - self.pos);
        c.mem
            .write(self.pos - c.file_off, &data[..n as usize])
            .await?;
        self.pos += n;
        self.size = self.size.max(self.pos);
        Ok(n as usize)
    }

    async fn seek_inner(&mut self, offset: i64, whence: SeekMode) -> Result<u64> {
        self.env.compute(SEEK_COST).await;
        let base = match whence {
            SeekMode::Set => 0i64,
            SeekMode::Cur => self.pos as i64,
            SeekMode::End => self.size as i64,
        };
        let new = base + offset;
        if new < 0 {
            return Err(Error::new(Code::InvOffset).with_msg("negative position"));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }

    /// Walks the file's extents via repeated `locate` requests and obtains
    /// one memory capability per extent — the mmap analogue of §4.5.8's
    /// remote-memory read path. The current file position is preserved.
    async fn map_inner(&mut self) -> Result<Vec<MapExtent>> {
        self.env.compute(m3_libos::costs::FILE_OP_ENTRY).await;
        if !self.readable {
            return Err(Error::new(Code::NoAccess).with_msg("not open for reading"));
        }
        let saved_pos = self.pos;
        let mut extents = Vec::new();
        let mut off = 0u64;
        while off < self.size {
            self.env.compute(m3_libos::costs::FILE_LOCATE).await;
            self.pos = off;
            let res = self.locate(false).await;
            self.pos = saved_pos;
            res?;
            let c = self
                .cached
                .take()
                .ok_or_else(|| Error::new(Code::Internal).with_msg("no cached extent"))?;
            if c.len == 0 {
                break;
            }
            off = c.file_off + c.len;
            extents.push(MapExtent {
                file_off: c.file_off,
                len: c.len.min(self.size.saturating_sub(c.file_off)),
                mem: c.mem,
            });
        }
        Ok(extents)
    }

    async fn close_inner(&mut self) -> Result<()> {
        if self.closed.replace(true) {
            return Ok(());
        }
        let size = if self.writable {
            self.size
        } else {
            NO_TRUNCATE
        };
        self.env.compute(ccosts::CLOSE).await;
        let msg = self
            .fs
            .sgate
            .call(&MetaRequest::Close { fd: self.fd, size }.to_bytes())
            .await?;
        SyscallReply::from_bytes(&msg.payload)?.into_result()?;
        Ok(())
    }
}

impl File for RegularFile {
    fn read<'a>(&'a mut self, buf: &'a mut [u8]) -> BoxFuture<'a, Result<usize>> {
        Box::pin(self.read_inner(buf))
    }

    fn write<'a>(&'a mut self, data: &'a [u8]) -> BoxFuture<'a, Result<usize>> {
        Box::pin(self.write_inner(data))
    }

    fn seek<'a>(&'a mut self, offset: i64, whence: SeekMode) -> BoxFuture<'a, Result<u64>> {
        Box::pin(self.seek_inner(offset, whence))
    }

    fn close<'a>(&'a mut self) -> BoxFuture<'a, Result<()>> {
        Box::pin(self.close_inner())
    }

    fn map<'a>(&'a mut self) -> BoxFuture<'a, Result<Vec<MapExtent>>> {
        Box::pin(self.map_inner())
    }
}

impl FileSystem for M3FsFileSystem {
    fn open<'a>(
        &'a self,
        env: &'a Env,
        path: &'a str,
        flags: OpenFlags,
    ) -> BoxFuture<'a, Result<Box<dyn File>>> {
        Box::pin(async move {
            let file = self.open_file(env, path, flags, 0).await?;
            Ok(Box::new(file) as Box<dyn File>)
        })
    }

    fn stat<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<FileInfo>> {
        Box::pin(async move {
            env.compute(ccosts::STAT).await;
            let data = self
                .meta(
                    env,
                    MetaRequest::Stat {
                        path: path.to_string(),
                    },
                )
                .await?;
            let r = StatReply::from_bytes(&data)?;
            Ok(FileInfo {
                size: r.size,
                is_dir: r.is_dir,
                extents: r.extents,
                links: r.links,
            })
        })
    }

    fn mkdir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(async move {
            env.compute(ccosts::META_MUT).await;
            self.meta(
                env,
                MetaRequest::Mkdir {
                    path: path.to_string(),
                },
            )
            .await?;
            Ok(())
        })
    }

    fn rmdir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(async move {
            env.compute(ccosts::META_MUT).await;
            self.meta(
                env,
                MetaRequest::Rmdir {
                    path: path.to_string(),
                },
            )
            .await?;
            Ok(())
        })
    }

    fn link<'a>(&'a self, env: &'a Env, old: &'a str, new: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(async move {
            env.compute(ccosts::META_MUT).await;
            self.meta(
                env,
                MetaRequest::Link {
                    old: old.to_string(),
                    new: new.to_string(),
                },
            )
            .await?;
            Ok(())
        })
    }

    fn unlink<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(async move {
            env.compute(ccosts::META_MUT).await;
            self.meta(
                env,
                MetaRequest::Unlink {
                    path: path.to_string(),
                },
            )
            .await?;
            Ok(())
        })
    }

    fn read_dir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<Vec<DirEntry>>> {
        Box::pin(async move {
            let mut entries = Vec::new();
            let mut start = 0u32;
            loop {
                env.compute(ccosts::READDIR_PAGE).await;
                let data = self
                    .meta(
                        env,
                        MetaRequest::ReadDir {
                            path: path.to_string(),
                            start,
                        },
                    )
                    .await?;
                let page = ReadDirReply::from_bytes(&data)?;
                start += page.entries.len() as u32;
                entries.extend(page.entries.into_iter().map(|e| DirEntry {
                    name: e.name,
                    is_dir: e.is_dir,
                }));
                if page.done {
                    return Ok(entries);
                }
            }
        })
    }
}

/// Connects to m3fs and mounts it at `/` in the environment's VFS.
///
/// # Errors
///
/// Fails if the service is unavailable.
pub async fn mount_m3fs(env: &Env) -> Result<()> {
    let fs = M3FsFileSystem::connect(env).await?;
    env.vfs().borrow_mut().mount("/", Rc::new(fs));
    Ok(())
}

/// Connects to the filesystem service `name` and mounts it at `path`.
///
/// # Errors
///
/// Fails if the service is unavailable.
pub async fn mount_m3fs_at(env: &Env, name: &str, path: &str) -> Result<()> {
    let fs = M3FsFileSystem::connect_named(env, name).await?;
    env.vfs().borrow_mut().mount(path, Rc::new(fs));
    Ok(())
}
