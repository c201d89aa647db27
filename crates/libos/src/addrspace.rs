//! Demand-paged virtual memory with remotely-managed page tables (paper
//! §7, future work).
//!
//! "Furthermore, we want to support virtual memory to enable copy-on-write,
//! demand paging, etc. This can be done by managing the page tables
//! remotely, similarly to managing the DTU endpoints remotely."
//!
//! [`AddrSpace`] is the application half of the m3-vm design: the kernel
//! owns the page table (`m3_vm::AddrSpaceObj`); a load or store to an
//! unmapped virtual address raises a *page fault* — a typed `PageFault`
//! message to the kernel — and the kernel allocates a zeroed DRAM frame on
//! first touch, or pages the data back in from the VPE's swap region, and
//! replies with a frame capability. The application caches translations in
//! a small software TLB; eviction just drops the local capability handle,
//! exactly as a hardware TLB forgets an entry.
//!
//! Faults are permission-precise: a read fault yields a read-only view, so
//! the first *write* to a page faults again — that second fault is what
//! sets the kernel-side dirty bit the pager's clean-first eviction policy
//! feeds on. And because the kernel may evict a page under memory pressure
//! (revoking the frame capability at the NoC level), every access retries
//! through a fresh fault when its cached capability has been cut.

use std::collections::VecDeque;

use m3_base::error::{Code, Error, Result};
use m3_base::Perm;
use m3_kernel::protocol::{PageFaultReply, Syscall};
use m3_kernel::PAGE_SIZE;

use crate::env::Env;
use crate::gate::MemGate;

/// Entries the software TLB holds before evicting the least recent.
pub const TLB_ENTRIES: usize = 8;

/// Re-fault attempts per access before giving up: one for a kernel-evicted
/// page (capability revoked between translate and access) plus one slack.
const FAULT_RETRIES: usize = 2;

struct TlbEntry {
    page: u64,
    /// The access the frame capability was faulted for; an access needing
    /// more re-faults (e.g. first write to a read-faulted page).
    perm: Perm,
    frame: MemGate,
}

/// A demand-paged virtual address space.
///
/// # Examples
///
/// See `tests/virtual_memory.rs` for end-to-end usage.
pub struct AddrSpace {
    env: Env,
    perm: Perm,
    tlb: VecDeque<TlbEntry>,
    faults: u64,
    tlb_misses: u64,
}

impl std::fmt::Debug for AddrSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddrSpace")
            .field("tlb_entries", &self.tlb.len())
            .field("tlb_misses", &self.tlb_misses)
            .finish()
    }
}

impl AddrSpace {
    /// Creates an address space with the given access permissions.
    pub fn new(env: &Env, perm: Perm) -> AddrSpace {
        AddrSpace {
            env: env.clone(),
            perm,
            tlb: VecDeque::new(),
            faults: 0,
            tlb_misses: 0,
        }
    }

    /// Software-TLB misses so far (each one is a kernel round trip).
    pub fn tlb_misses(&self) -> u64 {
        self.tlb_misses
    }

    /// Page-fault messages sent (TLB misses that reached the kernel).
    pub fn page_faults(&self) -> u64 {
        self.faults
    }

    /// Drops the cached translation of `page`, if any — after the kernel
    /// revoked the frame capability (eviction) the stale handle is useless.
    fn forget(&mut self, page: u64) {
        self.tlb.retain(|e| e.page != page);
    }

    /// Resolves `virt` for `access`, faulting to the kernel when the TLB
    /// has no (sufficient) translation. Returns the TLB index of the entry.
    async fn translate(&mut self, virt: u64, access: Perm) -> Result<usize> {
        let page = virt / PAGE_SIZE;
        if let Some(pos) = self
            .tlb
            .iter()
            .position(|e| e.page == page && e.perm.contains(access))
        {
            // Move to MRU.
            let entry = self.tlb.remove(pos).expect("position valid");
            self.tlb.push_back(entry);
            return Ok(self.tlb.len() - 1);
        }
        self.tlb_misses += 1;
        // A present-but-too-weak entry (read-faulted, now written) is
        // replaced: the kernel hands out a wider capability and revokes
        // the old one.
        self.forget(page);
        // The libos software share of assembling the fault message and
        // installing the returned capability.
        self.env.sim().sleep(m3_vm::costs::FAULT_ISSUE).await;
        let dst = self.env.alloc_sel();
        let data = self
            .env
            .syscall(Syscall::PageFault { dst, virt, access })
            .await?;
        PageFaultReply::from_bytes(&data)?;
        self.faults += 1;
        if self.tlb.len() == TLB_ENTRIES {
            self.tlb.pop_front(); // capability handle dropped, like a TLB evict
        }
        self.tlb.push_back(TlbEntry {
            page,
            perm: access,
            frame: MemGate::bind(&self.env, dst),
        });
        Ok(self.tlb.len() - 1)
    }

    /// Whether an access failure means the kernel evicted the page under
    /// memory pressure (frame capability revoked / endpoint invalidated) —
    /// the re-fault-and-retry signal.
    fn evicted(e: &Error) -> bool {
        matches!(e.code(), Code::InvEp | Code::InvCap)
    }

    /// Reads `buf.len()` bytes at virtual address `virt`, faulting pages in
    /// as needed (unmapped pages read as zeros, as freshly allocated frames
    /// are zeroed; evicted pages page back in from swap).
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoPerm`] if the address space is not readable, and
    /// propagates kernel and DTU errors.
    pub async fn read(&mut self, virt: u64, buf: &mut [u8]) -> Result<()> {
        if !self.perm.contains(Perm::R) {
            return Err(Error::new(Code::NoPerm).with_msg("address space not readable"));
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let addr = virt + pos as u64;
            let off = addr % PAGE_SIZE;
            let n = ((PAGE_SIZE - off) as usize).min(buf.len() - pos);
            let mut attempt = 0;
            let data = loop {
                let idx = self.translate(addr, Perm::R).await?;
                match self.tlb[idx].frame.read(off, n).await {
                    Ok(data) => break data,
                    Err(e) if Self::evicted(&e) && attempt < FAULT_RETRIES => {
                        attempt += 1;
                        self.forget(addr / PAGE_SIZE);
                    }
                    Err(e) => return Err(e),
                }
            };
            buf[pos..pos + n].copy_from_slice(&data);
            pos += n;
        }
        Ok(())
    }

    /// Writes `data` at virtual address `virt`, faulting pages in as
    /// needed. The first write to a page faults even if it was read before
    /// — the write fault is what marks the page dirty in the kernel's
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoPerm`] if the address space is not writable, and
    /// propagates kernel and DTU errors.
    pub async fn write(&mut self, virt: u64, data: &[u8]) -> Result<()> {
        if !self.perm.contains(Perm::W) {
            return Err(Error::new(Code::NoPerm).with_msg("address space not writable"));
        }
        let mut pos = 0usize;
        while pos < data.len() {
            let addr = virt + pos as u64;
            let off = addr % PAGE_SIZE;
            let n = ((PAGE_SIZE - off) as usize).min(data.len() - pos);
            let mut attempt = 0;
            loop {
                let idx = self.translate(addr, Perm::RW).await?;
                match self.tlb[idx].frame.write(off, &data[pos..pos + n]).await {
                    Ok(()) => break,
                    Err(e) if Self::evicted(&e) && attempt < FAULT_RETRIES => {
                        attempt += 1;
                        self.forget(addr / PAGE_SIZE);
                    }
                    Err(e) => return Err(e),
                }
            }
            pos += n;
        }
        Ok(())
    }

    /// Unmaps the page containing `virt`, freeing its frame (and swap
    /// slot) and dropping any TLB entry.
    ///
    /// # Errors
    ///
    /// Returns [`m3_base::error::Code::InvArgs`] if the page was never
    /// touched.
    pub async fn unmap(&mut self, virt: u64) -> Result<()> {
        let page = virt / PAGE_SIZE;
        self.tlb.retain(|e| e.page != page);
        self.env.syscall(Syscall::Unmap { virt }).await?;
        Ok(())
    }
}
