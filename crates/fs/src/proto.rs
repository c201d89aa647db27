//! The m3fs wire protocol: meta-channel requests, their reply payloads and
//! the session-obtain arguments.
//!
//! Meta operations travel over a send gate the client obtains from the
//! session; data *locations* are exchanged as memory capabilities through
//! session obtains (§4.5.8).

use m3_base::wire;

/// Sentinel for "close without truncating".
pub const NO_TRUNCATE: u64 = u64::MAX;

/// Maximum directory entries per ReadDir reply page.
pub const READDIR_PAGE: usize = 16;

wire! {
    /// A metadata request to m3fs. The reply is a
    /// [`SyscallReply`](m3_kernel::protocol::SyscallReply) whose data is
    /// the request's reply payload below, or empty.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum MetaRequest: u8 {
        /// Open (and possibly create/truncate) a file; replies with an
        /// [`OpenReply`].
        Open = 0 {
            /// Absolute path within the filesystem.
            path: String,
            /// `m3_libos::vfs::OpenFlags` bits.
            flags: u32,
        },
        /// Close an open file, truncating it to `size` bytes (§4.5.8)
        /// unless `size` is [`NO_TRUNCATE`].
        Close = 1 {
            /// The open-file handle.
            fd: u64,
            /// Final file size.
            size: u64,
        },
        /// Stat a path; replies with a [`StatReply`].
        Stat = 2 {
            /// Absolute path.
            path: String,
        },
        /// Create a directory.
        Mkdir = 3 {
            /// Absolute path.
            path: String,
        },
        /// Remove an empty directory.
        Rmdir = 4 {
            /// Absolute path.
            path: String,
        },
        /// Remove a file name.
        Unlink = 5 {
            /// Absolute path.
            path: String,
        },
        /// Create a hard link.
        Link = 6 {
            /// Existing file.
            old: String,
            /// New name.
            new: String,
        },
        /// List a directory, starting at entry index `start` (paged);
        /// replies with a [`ReadDirReply`].
        ReadDir = 7 {
            /// Absolute path.
            path: String,
            /// First entry index to return.
            start: u32,
        },
        /// Run a consistency check; replies with an [`FsckReply`].
        Fsck = 8,
    }
}

wire! {
    /// Reply payload of [`MetaRequest::Open`].
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct OpenReply {
        /// The open-file handle.
        pub fd: u64,
        /// Current file size in bytes.
        pub size: u64,
        /// Number of extents the file occupies.
        pub extents: u32,
    }
}

wire! {
    /// Reply payload of [`MetaRequest::Stat`].
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct StatReply {
        /// File size in bytes.
        pub size: u64,
        /// Whether the path names a directory.
        pub is_dir: bool,
        /// Number of extents.
        pub extents: u32,
        /// Hard-link count.
        pub links: u32,
    }
}

wire! {
    /// Reply payload of [`MetaRequest::Fsck`].
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct FsckReply {
        /// Number of inconsistencies found.
        pub errors: u32,
        /// Inodes in use.
        pub inodes: u64,
        /// Blocks in use.
        pub used_blocks: u64,
    }
}

wire! {
    /// One directory entry of a [`ReadDirReply`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ReadDirEntry {
        /// Entry name.
        pub name: String,
        /// Whether the entry is a directory.
        pub is_dir: bool,
    }
}

wire! {
    /// Reply payload of [`MetaRequest::ReadDir`]: one page of entries.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ReadDirReply {
        /// At most [`READDIR_PAGE`] entries from the requested start.
        pub entries: Vec<ReadDirEntry> [max READDIR_PAGE],
        /// Whether this page reaches the end of the directory.
        pub done: bool,
    }
}

wire! {
    /// Arguments of a locate obtain: which fragment of which file.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct LocateArgs {
        /// The open-file handle.
        pub fd: u64,
        /// Byte offset the caller wants to access.
        pub offset: u64,
        /// Whether the access is a write (may extend the file).
        pub write: bool,
        /// For writes at EOF: how many blocks to allocate at once (0 = the
        /// filesystem default of 256, §5.5).
        pub want_blocks: u64,
    }
}

wire! {
    /// The argument bytes of a session obtain: what the client asks m3fs
    /// to hand out.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum Obtain: u8 {
        /// The meta-channel send gate.
        MetaGate = 0,
        /// A memory capability for a file fragment; the obtain's reply
        /// bytes are a [`LocateReply`].
        Locate = 1(args: LocateArgs),
    }
}

wire! {
    /// Reply payload of a locate obtain.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct LocateReply {
        /// File offset the granted fragment starts at.
        pub ext_file_off: u64,
        /// Length of the granted fragment in bytes.
        pub ext_bytes: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_base::error::Code;

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(
            MetaRequest::from_bytes(&[99]).unwrap_err().code(),
            Code::BadMessage
        );
    }
}
