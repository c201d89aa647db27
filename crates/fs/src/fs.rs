//! The filesystem core: path resolution, inodes, extents, allocation.
//!
//! Organized "like classical UNIX filesystems, consisting of a superblock,
//! an inode and block bitmap, an inode table and directories with pointers
//! to the inodes", with file data held as extents (§4.5.8).

use std::collections::BTreeMap;

use m3_base::error::{Code, Error, Result};

use crate::bitmap::BlockBitmap;
use crate::inode::Inode;

/// A contiguous run of blocks: (starting block number, number of blocks) —
/// "as in other modern filesystems" (§4.5.8).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Extent {
    /// First block of the run.
    pub start: u64,
    /// Number of blocks.
    pub blocks: u64,
}

impl Extent {
    /// Byte offset of the extent within the data region.
    pub fn byte_off(&self, block_size: u64) -> u64 {
        self.start * block_size
    }

    /// Byte length of the extent.
    pub fn byte_len(&self, block_size: u64) -> u64 {
        self.blocks * block_size
    }
}

/// The root directory's inode number.
pub const ROOT_INO: u64 = 1;

/// The in-memory filesystem core (no I/O; the server wires it to the DRAM
/// data region and the service protocol).
#[derive(Debug)]
pub struct FsCore {
    block_size: u64,
    bitmap: BlockBitmap,
    inodes: BTreeMap<u64, Inode>,
    next_ino: u64,
}

impl FsCore {
    /// Creates an empty filesystem over `total_blocks` blocks of
    /// `block_size` bytes with a root directory.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(total_blocks: u64, block_size: u64) -> FsCore {
        assert!(block_size > 0, "block size must be non-zero");
        let mut inodes = BTreeMap::new();
        inodes.insert(ROOT_INO, Inode::dir(ROOT_INO));
        FsCore {
            block_size,
            bitmap: BlockBitmap::new(total_blocks),
            inodes,
            next_ino: ROOT_INO + 1,
        }
    }

    /// The filesystem block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.bitmap.free_blocks()
    }

    fn components(path: &str) -> impl Iterator<Item = &str> {
        path.split('/').filter(|c| !c.is_empty())
    }

    /// Resolves a path to an inode number.
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoSuchFile`] if any component is missing, or
    /// [`Code::IsNoDir`] if an intermediate component is a file.
    pub fn resolve(&self, path: &str) -> Result<u64> {
        let mut cur = ROOT_INO;
        for comp in Self::components(path) {
            let inode = &self.inodes[&cur];
            let entries = inode
                .dir_entries()
                .ok_or_else(|| Error::new(Code::IsNoDir).with_msg(path.to_string()))?;
            cur = *entries
                .get(comp)
                .ok_or_else(|| Error::new(Code::NoSuchFile).with_msg(path.to_string()))?;
        }
        Ok(cur)
    }

    /// Resolves a path to (parent directory inode, final component).
    ///
    /// # Errors
    ///
    /// Like [`FsCore::resolve`]; also [`Code::InvArgs`] for the root path.
    pub fn resolve_parent<'p>(&self, path: &'p str) -> Result<(u64, &'p str)> {
        let comps: Vec<&str> = Self::components(path).collect();
        let Some((last, dirs)) = comps.split_last() else {
            return Err(Error::new(Code::InvArgs).with_msg("root has no parent"));
        };
        let mut cur = ROOT_INO;
        for comp in dirs {
            let inode = &self.inodes[&cur];
            let entries = inode
                .dir_entries()
                .ok_or_else(|| Error::new(Code::IsNoDir).with_msg(path.to_string()))?;
            cur = *entries
                .get(*comp)
                .ok_or_else(|| Error::new(Code::NoSuchFile).with_msg(path.to_string()))?;
        }
        if !self.inodes[&cur].is_dir() {
            return Err(Error::new(Code::IsNoDir).with_msg(path.to_string()));
        }
        Ok((cur, last))
    }

    /// Looks up an inode by number.
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist (internal invariant).
    pub fn inode(&self, ino: u64) -> &Inode {
        &self.inodes[&ino]
    }

    /// Mutable inode access.
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist (internal invariant).
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` accessor; callers pass inos returned by resolve()/create paths"
    )]
    pub fn inode_mut(&mut self, ino: u64) -> &mut Inode {
        self.inodes.get_mut(&ino).expect("dangling inode")
    }

    /// Directory entries of `ino`, or [`Code::IsNoDir`] if it is a file.
    fn entries(&self, ino: u64) -> Result<&BTreeMap<String, u64>> {
        self.inodes[&ino]
            .dir_entries()
            .ok_or_else(|| Error::new(Code::IsNoDir))
    }

    /// Mutable directory entries of `ino`, or [`Code::IsNoDir`] if it is a
    /// file.
    fn entries_mut(&mut self, ino: u64) -> Result<&mut BTreeMap<String, u64>> {
        self.inodes
            .get_mut(&ino)
            .ok_or_else(|| Error::new(Code::NoSuchFile))?
            .dir_entries_mut()
            .ok_or_else(|| Error::new(Code::IsNoDir))
    }

    /// Creates a regular file; returns its inode number.
    ///
    /// # Errors
    ///
    /// Returns [`Code::Exists`] if the path already exists.
    pub fn create_file(&mut self, path: &str) -> Result<u64> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.entries(parent)?.contains_key(name) {
            return Err(Error::new(Code::Exists).with_msg(path.to_string()));
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, Inode::file(ino));
        let name = name.to_string();
        self.entries_mut(parent)?.insert(name, ino);
        Ok(ino)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// Returns [`Code::Exists`] if the path already exists.
    pub fn mkdir(&mut self, path: &str) -> Result<u64> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.entries(parent)?.contains_key(name) {
            return Err(Error::new(Code::Exists).with_msg(path.to_string()));
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, Inode::dir(ino));
        let name = name.to_string();
        self.entries_mut(parent)?.insert(name, ino);
        Ok(ino)
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`Code::IsNoDir`] for files, [`Code::DirNotEmpty`] for non-empty
    /// directories.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let ino = self.resolve(path)?;
        let inode = &self.inodes[&ino];
        let entries = inode
            .dir_entries()
            .ok_or_else(|| Error::new(Code::IsNoDir).with_msg(path.to_string()))?;
        if !entries.is_empty() {
            return Err(Error::new(Code::DirNotEmpty).with_msg(path.to_string()));
        }
        let name = name.to_string();
        self.entries_mut(parent)?.remove(&name);
        self.inodes.remove(&ino);
        Ok(())
    }

    /// Creates a hard link `new` to the file at `old`.
    ///
    /// # Errors
    ///
    /// [`Code::IsDir`] when `old` is a directory, [`Code::Exists`] when
    /// `new` exists.
    pub fn link(&mut self, old: &str, new: &str) -> Result<()> {
        let ino = self.resolve(old)?;
        if self.inodes[&ino].is_dir() {
            return Err(Error::new(Code::IsDir).with_msg(old.to_string()));
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.entries(parent)?.contains_key(name) {
            return Err(Error::new(Code::Exists).with_msg(new.to_string()));
        }
        let name = name.to_string();
        self.entries_mut(parent)?.insert(name, ino);
        self.inode_mut(ino).links += 1;
        Ok(())
    }

    /// Removes a file name; frees the inode and its blocks when the last
    /// link disappears.
    ///
    /// # Errors
    ///
    /// [`Code::IsDir`] for directories, [`Code::NoSuchFile`] if missing.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let ino = self.resolve(path)?;
        if self.inodes[&ino].is_dir() {
            return Err(Error::new(Code::IsDir).with_msg(path.to_string()));
        }
        let (parent, name) = self.resolve_parent(path)?;
        let name = name.to_string();
        self.entries_mut(parent)?.remove(&name);
        let inode = self.inode_mut(ino);
        inode.links -= 1;
        if inode.links == 0 {
            let extents = std::mem::take(&mut inode.extents);
            self.inodes.remove(&ino);
            for e in extents {
                self.bitmap.free_run(e.start, e.blocks);
            }
        }
        Ok(())
    }

    /// Appends an extent of up to `want_blocks` blocks to a file ("write
    /// operations extend files by a large number of blocks at once to
    /// minimize fragmentation", §4.5.8). Returns the new extent.
    ///
    /// # Errors
    ///
    /// [`Code::NoSpace`] when the filesystem is full.
    pub fn append_extent(&mut self, ino: u64, want_blocks: u64) -> Result<Extent> {
        let (start, blocks) = self.bitmap.alloc_run(want_blocks)?;
        let ext = Extent { start, blocks };
        let inode = self.inode_mut(ino);
        // Merge with the previous extent when physically adjacent.
        if let Some(last) = inode.extents.last_mut() {
            if last.start + last.blocks == start {
                last.blocks += blocks;
                return Ok(ext);
            }
        }
        inode.extents.push(ext);
        Ok(ext)
    }

    /// Finds the extent containing byte `offset`; returns (extent, byte
    /// offset of the extent's start within the file, extent index).
    ///
    /// # Errors
    ///
    /// [`Code::InvOffset`] when `offset` is beyond the allocated blocks.
    pub fn extent_at(&self, ino: u64, offset: u64) -> Result<(Extent, u64, usize)> {
        let inode = self.inode(ino);
        let mut file_off = 0;
        for (idx, e) in inode.extents.iter().enumerate() {
            let len = e.byte_len(self.block_size);
            if offset < file_off + len {
                return Ok((*e, file_off, idx));
            }
            file_off += len;
        }
        Err(Error::new(Code::InvOffset).with_msg(format!("offset {offset} beyond extents")))
    }

    /// Sets the file size and truncates the extent list to the used blocks
    /// ("the close operation truncates it to the actually used space",
    /// §4.5.8).
    ///
    /// # Errors
    ///
    /// [`Code::InvArgs`] when growing beyond the allocated blocks.
    pub fn truncate(&mut self, ino: u64, size: u64) -> Result<()> {
        let block_size = self.block_size;
        let needed_blocks = size.div_ceil(block_size);
        let inode = self.inode_mut(ino);
        if needed_blocks > inode.blocks() {
            return Err(Error::new(Code::InvArgs).with_msg("truncate beyond allocation"));
        }
        let mut to_free = inode.blocks() - needed_blocks;
        let mut freed = Vec::new();
        while to_free > 0 {
            #[expect(
                clippy::expect_used,
                reason = "to_free > 0 implies the inode still owns blocks, and blocks live in extents by construction"
            )]
            let last = inode.extents.last_mut().expect("blocks imply extents");
            let cut = to_free.min(last.blocks);
            last.blocks -= cut;
            freed.push((last.start + last.blocks, cut));
            if last.blocks == 0 {
                inode.extents.pop();
            }
            to_free -= cut;
        }
        inode.size = size;
        for (start, count) in freed {
            self.bitmap.free_run(start, count);
        }
        Ok(())
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// [`Code::IsNoDir`] for files.
    pub fn read_dir(&self, path: &str) -> Result<Vec<(String, bool)>> {
        let ino = self.resolve(path)?;
        let inode = self.inode(ino);
        let entries = inode
            .dir_entries()
            .ok_or_else(|| Error::new(Code::IsNoDir).with_msg(path.to_string()))?;
        Ok(entries
            .iter()
            .map(|(name, &child)| (name.clone(), self.inodes[&child].is_dir()))
            .collect())
    }

    /// Number of path components (used by the server's lookup cost model).
    pub fn path_depth(path: &str) -> u64 {
        Self::components(path).count() as u64
    }

    /// Allocates raw blocks outside any file (used by the server's setup
    /// code to force gaps between extents for the Figure 4 fragmentation
    /// experiment).
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoSpace`] when full.
    pub fn alloc_raw(&mut self, blocks: u64) -> Result<(u64, u64)> {
        self.bitmap.alloc_run(blocks)
    }

    /// Frees raw blocks from [`FsCore::alloc_raw`].
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free_raw(&mut self, start: u64, count: u64) {
        self.bitmap.free_run(start, count);
    }

    /// Total blocks of the data region.
    pub fn total_blocks(&self) -> u64 {
        self.bitmap.total_blocks()
    }

    /// All inodes, sorted by number (for serialization and fsck).
    pub fn all_inodes(&self) -> Vec<&Inode> {
        let mut v: Vec<&Inode> = self.inodes.values().collect();
        v.sort_by_key(|i| i.ino);
        v
    }

    /// Rebuilds a filesystem from its inode table (deserialization): the
    /// block bitmap is reconstructed from the extent lists.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the root is missing or extents fall
    /// outside the data region.
    pub(crate) fn from_parts(
        total_blocks: u64,
        block_size: u64,
        inodes: Vec<Inode>,
    ) -> Result<FsCore> {
        let mut fs = FsCore::new(total_blocks, block_size);
        fs.inodes.clear();
        let mut next_ino = ROOT_INO + 1;
        for inode in inodes {
            for e in &inode.extents {
                if e.start + e.blocks > total_blocks {
                    return Err(Error::new(Code::BadMessage)
                        .with_msg(format!("extent beyond region: {e:?}")));
                }
                fs.bitmap.reserve(e.start, e.blocks);
            }
            next_ino = next_ino.max(inode.ino + 1);
            fs.inodes.insert(inode.ino, inode);
        }
        if !fs.inodes.contains_key(&ROOT_INO) {
            return Err(Error::new(Code::BadMessage).with_msg("missing root inode"));
        }
        fs.next_ino = next_ino;
        Ok(fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FsCore {
        FsCore::new(1024, 1024)
    }

    #[test]
    fn create_and_resolve() {
        let mut f = fs();
        f.mkdir("/dir").unwrap();
        let ino = f.create_file("/dir/a.txt").unwrap();
        assert_eq!(f.resolve("/dir/a.txt").unwrap(), ino);
        assert_eq!(f.resolve("/").unwrap(), ROOT_INO);
        assert_eq!(f.resolve("/nope").unwrap_err().code(), Code::NoSuchFile);
        assert_eq!(
            f.create_file("/dir/a.txt").unwrap_err().code(),
            Code::Exists
        );
    }

    #[test]
    fn file_as_intermediate_component_fails() {
        let mut f = fs();
        f.create_file("/a").unwrap();
        assert_eq!(f.resolve("/a/b").unwrap_err().code(), Code::IsNoDir);
        assert_eq!(f.create_file("/a/b").unwrap_err().code(), Code::IsNoDir);
    }

    #[test]
    fn append_extents_and_locate() {
        let mut f = fs();
        let ino = f.create_file("/f").unwrap();
        let e1 = f.append_extent(ino, 4).unwrap();
        assert_eq!(e1.blocks, 4);
        // Adjacent allocation merges into one extent.
        let _e2 = f.append_extent(ino, 4).unwrap();
        assert_eq!(f.inode(ino).extents.len(), 1);
        assert_eq!(f.inode(ino).blocks(), 8);

        let (ext, file_off, idx) = f.extent_at(ino, 5000).unwrap();
        assert_eq!(file_off, 0);
        assert_eq!(idx, 0);
        assert_eq!(ext.blocks, 8);
        assert_eq!(f.extent_at(ino, 9000).unwrap_err().code(), Code::InvOffset);
    }

    #[test]
    fn truncate_frees_blocks() {
        let mut f = fs();
        let ino = f.create_file("/f").unwrap();
        let free0 = f.free_blocks();
        f.append_extent(ino, 256).unwrap();
        assert_eq!(f.free_blocks(), free0 - 256);
        // The file only used 3000 bytes = 3 blocks.
        f.truncate(ino, 3000).unwrap();
        assert_eq!(f.free_blocks(), free0 - 3);
        assert_eq!(f.inode(ino).size, 3000);
        assert_eq!(f.inode(ino).blocks(), 3);
    }

    #[test]
    fn unlink_frees_when_last_link_goes() {
        let mut f = fs();
        let ino = f.create_file("/f").unwrap();
        f.append_extent(ino, 8).unwrap();
        f.inode_mut(ino).size = 8192;
        let free_before = f.free_blocks();
        f.link("/f", "/g").unwrap();
        f.unlink("/f").unwrap();
        assert_eq!(f.free_blocks(), free_before, "still linked at /g");
        assert!(f.resolve("/g").is_ok());
        f.unlink("/g").unwrap();
        assert_eq!(f.free_blocks(), free_before + 8);
    }

    #[test]
    fn link_to_dir_rejected() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        assert_eq!(f.link("/d", "/e").unwrap_err().code(), Code::IsDir);
    }

    #[test]
    fn rmdir_semantics() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        f.create_file("/d/x").unwrap();
        assert_eq!(f.rmdir("/d").unwrap_err().code(), Code::DirNotEmpty);
        f.unlink("/d/x").unwrap();
        f.rmdir("/d").unwrap();
        assert_eq!(f.resolve("/d").unwrap_err().code(), Code::NoSuchFile);
        f.create_file("/x").unwrap();
        assert_eq!(f.rmdir("/x").unwrap_err().code(), Code::IsNoDir);
    }

    #[test]
    fn read_dir_lists_entries() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        f.create_file("/d/a").unwrap();
        f.mkdir("/d/sub").unwrap();
        let mut entries = f.read_dir("/d").unwrap();
        entries.sort();
        assert_eq!(
            entries,
            vec![("a".to_string(), false), ("sub".to_string(), true)]
        );
        assert_eq!(f.read_dir("/d/a").unwrap_err().code(), Code::IsNoDir);
    }

    #[test]
    fn read_dir_order_is_lexicographic_and_ignores_creation_order() {
        // Directory entries live in a BTreeMap, so ReadDir pages served by
        // the m3fs server come out in one deterministic order no matter how
        // the names were created (DESIGN.md §4.1).
        let mut forward = fs();
        let mut backward = fs();
        forward.mkdir("/d").unwrap();
        backward.mkdir("/d").unwrap();
        let names = ["zeta", "alpha", "mid", "beta"];
        for name in names {
            forward.create_file(&format!("/d/{name}")).unwrap();
        }
        for name in names.iter().rev() {
            backward.create_file(&format!("/d/{name}")).unwrap();
        }
        let listed: Vec<String> = forward
            .read_dir("/d")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(listed, vec!["alpha", "beta", "mid", "zeta"]);
        assert_eq!(
            forward.read_dir("/d").unwrap(),
            backward.read_dir("/d").unwrap(),
            "listing must not depend on creation order"
        );
    }

    #[test]
    fn fragmentation_yields_multiple_extents() {
        let mut f = fs();
        // Interleave two files' appends in small chunks so neither can merge.
        let a = f.create_file("/a").unwrap();
        let b = f.create_file("/b").unwrap();
        for _ in 0..4 {
            f.append_extent(a, 16).unwrap();
            f.append_extent(b, 16).unwrap();
        }
        assert_eq!(f.inode(a).extents.len(), 4);
        assert_eq!(f.inode(b).extents.len(), 4);
        // extent_at walks the list correctly.
        let (_, file_off, idx) = f.extent_at(a, 3 * 16 * 1024).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(file_off, 3 * 16 * 1024);
    }

    #[test]
    fn path_depth() {
        assert_eq!(FsCore::path_depth("/"), 0);
        assert_eq!(FsCore::path_depth("/a/b/c"), 3);
        assert_eq!(FsCore::path_depth("a/b"), 2);
    }
}
