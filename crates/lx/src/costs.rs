//! Calibrated Linux cost constants, with paper citations.

use m3_base::Cycles;

/// Entering and leaving the kernel: mode switch plus saving/restoring the
/// machine state (§5.4: "read on Linux requires ~380 cycles for
/// entering/leaving the kernel"). The remainder of the 410-cycle null
/// syscall (§5.3) is dispatch.
pub const SYSCALL_ENTRY_EXIT: Cycles = Cycles::new(380);

/// Syscall-table dispatch (the §5.3 410-cycle null syscall minus the ~380
/// entry/exit cycles of §5.4).
pub const SYSCALL_DISPATCH: Cycles = Cycles::new(30);

/// Retrieving the file pointer, security checks, and function
/// prologs/epilogs (§5.4: ~400 cycles).
pub const FD_LOOKUP: Cycles = Cycles::new(400);

/// Page-cache operations (get, put, …) per 4 KiB block (§5.4: ~550 cycles).
pub const PAGE_CACHE_OP: Cycles = Cycles::new(550);

/// Page size the §5.4 per-4-KiB-block page-cache costs apply to.
pub const PAGE_SIZE: usize = 4096;

/// Path lookup per component (dentry walk + permission check). Tuned so
/// `stat` is "well optimized on Linux" and slightly faster than m3fs' RPC
/// (§5.6).
pub const PATH_LOOKUP_PER_COMP: Cycles = Cycles::new(160);

/// Inode operations of a create/unlink/link/mkdir beyond the lookup
/// (calibrated against the §5.6 meta-operation comparison).
pub const INODE_MUT: Cycles = Cycles::new(450);

/// `stat` beyond lookup: inode fetch and `struct stat` fill (§5.6: stat is
/// "well optimized on Linux").
pub const STAT_FILL: Cycles = Cycles::new(250);

/// `getdents` per returned entry (directory listing in the §5.6 find
/// benchmark).
pub const DENTS_PER_ENTRY: Cycles = Cycles::new(60);

/// Direct cost of a context switch (scheduler, register state). The
/// *indirect* cost — refilling caches — emerges from the cache simulator
/// (§5.5: pipes on Linux suffer context switches between producer and
/// consumer).
pub const CTX_SWITCH: Cycles = Cycles::new(1200);

/// `fork`: duplicating mm/fd tables, COW page-table setup. M3's `VPE::run`
/// beats this (§5.6: "VPE::run being faster than fork").
pub const FORK: Cycles = Cycles::new(40_000);

/// `exec` beyond loading the image: ELF parsing, mm teardown/rebuild
/// (counterpart of M3's application loading, §4.5.5/§5.6).
pub const EXEC_BASE: Cycles = Cycles::new(60_000);

/// Pipe bookkeeping per operation beyond the copy (locking, wakeups);
/// Linux side of the §5.5 pipe comparison.
pub const PIPE_OP: Cycles = Cycles::new(300);

/// Kernel-internal per-page cost of `sendfile` (no user copy; tar/untar
/// use it, §5.6).
pub const SENDFILE_PER_PAGE: Cycles = Cycles::new(700);

/// Base address of the tmpfs page cache in the modelled physical address
/// space (feeds the cache simulator used for the §5.5/§5.6 Linux runs).
pub const FILE_MEM_BASE: u64 = 0x4000_0000;

/// Bytes of modelled address space per file (§5.5/§5.6 cache model layout).
pub const FILE_MEM_STRIDE: u64 = 0x0100_0000;

/// Base address of per-process user buffers (§5.5/§5.6 cache model layout).
pub const USER_MEM_BASE: u64 = 0x8000_0000;

/// Bytes of modelled address space per process (§5.5/§5.6 cache model
/// layout).
pub const USER_MEM_STRIDE: u64 = 0x0100_0000;

/// Base address of in-kernel pipe buffers (§5.5 pipe benchmark layout).
pub const PIPE_MEM_BASE: u64 = 0xc000_0000;

/// Bytes of modelled address space per pipe (§5.5 pipe benchmark layout).
pub const PIPE_MEM_STRIDE: u64 = 0x0010_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_syscall_total_matches_paper() {
        assert_eq!(
            (SYSCALL_ENTRY_EXIT + SYSCALL_DISPATCH).as_u64(),
            410,
            "§5.3: 410 cycles on Xtensa"
        );
    }

    #[test]
    fn read_block_overhead_matches_paper() {
        // §5.4: ~380 + ~400 + ~550 cycles per 4 KiB block.
        let per_block = SYSCALL_ENTRY_EXIT + FD_LOOKUP + PAGE_CACHE_OP;
        assert_eq!(per_block.as_u64(), 1330);
    }

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "pins a layout invariant between constants"
    )]
    fn address_regions_do_not_overlap() {
        assert!(FILE_MEM_BASE + 64 * FILE_MEM_STRIDE <= USER_MEM_BASE);
        assert!(USER_MEM_BASE + 64 * USER_MEM_STRIDE <= PIPE_MEM_BASE);
    }
}
