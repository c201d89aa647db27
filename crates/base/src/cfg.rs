//! Platform constants of the reproduced Tomahawk prototype.
//!
//! Values come straight from the paper: 64 KiB instruction SPM + 64 KiB data
//! SPM per PE (§4.1, simulator version), 8 endpoints per DTU (§4.5.4), DTU
//! bandwidth of 8 bytes per cycle (§5.4), 1 KiB m3fs blocks and 4 KiB
//! benchmark buffers (§5.4).

/// Size of the per-PE instruction scratchpad memory (64 KiB, §4.1).
pub const SPM_CODE_SIZE: usize = 64 * 1024;

/// Size of the per-PE data scratchpad memory (64 KiB, §4.1).
pub const SPM_DATA_SIZE: usize = 64 * 1024;

/// Number of endpoints per DTU (8 in the prototype, §4.5.4).
pub const EP_COUNT: usize = 8;

/// DTU transfer bandwidth: 8 bytes per cycle (§5.4, "similar to DMA").
pub const DTU_BYTES_PER_CYCLE: u64 = 8;

/// Size of a message header prepended by the DTU (label + length + reply
/// info, §4.4.2). 24 bytes: 8 B label, 4 B length, 4 B sender pe/ep, 8 B
/// reply label.
pub const MSG_HEADER_SIZE: usize = 24;

/// Default maximum message (slot) size for receive ring buffers.
pub const DEF_MSG_SLOT_SIZE: usize = 512;

/// Default number of slots in a receive ring buffer.
pub const DEF_MSG_SLOTS: usize = 8;

/// Size of a DRAM module in the prototype platform (enough for the in-memory
/// filesystem plus pipe buffers in every benchmark).
pub const DRAM_SIZE: usize = 64 * 1024 * 1024;

/// m3fs block size used throughout the evaluation (1 KiB, §5.4).
pub const FS_BLOCK_SIZE: usize = 1024;

/// Number of blocks m3fs appends at once to limit fragmentation (256, §5.5).
pub const FS_ALLOC_BLOCKS: usize = 256;

/// Buffer size used by the file benchmarks (4 KiB, the sweet spot on Linux,
/// §5.4).
pub const BENCH_BUF_SIZE: usize = 4096;

/// Cache line size assumed for the Linux baseline (32 bytes, §5.1).
pub const CACHE_LINE_SIZE: usize = 32;

/// Capacity of each of the Linux PE's instruction and data caches (64 KiB,
/// §5.1).
pub const CACHE_SIZE: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(SPM_CODE_SIZE, 65536);
        assert_eq!(SPM_DATA_SIZE, 65536);
        assert_eq!(EP_COUNT, 8);
        assert_eq!(DTU_BYTES_PER_CYCLE, 8);
        assert_eq!(FS_BLOCK_SIZE, 1024);
        assert_eq!(FS_ALLOC_BLOCKS, 256);
        assert_eq!(BENCH_BUF_SIZE, 4096);
        assert_eq!(CACHE_LINE_SIZE, 32);
    }

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "pins a layout invariant between constants"
    )]
    fn header_fits_in_a_slot() {
        assert!(MSG_HEADER_SIZE < DEF_MSG_SLOT_SIZE);
    }
}
