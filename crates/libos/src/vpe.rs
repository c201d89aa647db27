//! Creating and controlling VPEs (§4.5.5).
//!
//! `run` models the clone operation: libm3 "transfers the code, static data,
//! the used portion of the heap and the stack to the corresponding locations
//! of the memory denoted by the memory gate"; `exec` loads an executable
//! from the filesystem instead. Both then start the VPE and run the program
//! asynchronously; `wait` retrieves the exit code.

use std::cell::Cell;
use std::fmt;
use std::future::Future;

use m3_base::error::Result;
use m3_base::{EpId, PeId, Perm, SelId, VpeId};
use m3_kernel::protocol::{CreateVpeReply, PeRequest, Syscall, VpeWaitReply};
use m3_kernel::VpeBootInfo;

use crate::costs;
use crate::env::Env;
use crate::gate::MemGate;
use crate::vfs::{self, OpenFlags};

/// A handle to a VPE created by this VPE.
pub struct Vpe {
    env: Env,
    sel: SelId,
    mem: MemGate,
    id: VpeId,
    pe: PeId,
    name: String,
    /// Child-side selectors the parent assigns (1..16 are reserved).
    next_child_sel: Cell<u32>,
}

impl fmt::Debug for Vpe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vpe({} \"{}\" on {})", self.id, self.name, self.pe)
    }
}

impl Vpe {
    /// Creates a VPE on a free PE of the requested type.
    ///
    /// # Errors
    ///
    /// Returns [`m3_base::error::Code::NoFreePe`] if no matching PE is free.
    pub async fn new(env: &Env, name: &str, pe: PeRequest) -> Result<Vpe> {
        env.compute(costs::VPE_SETUP).await;
        let sel = env.alloc_sel();
        let mem_sel = env.alloc_sel();
        let data = env
            .syscall(Syscall::CreateVpe {
                dst: sel,
                mem_dst: mem_sel,
                pe,
                name: name.to_string(),
            })
            .await?;
        let placed = CreateVpeReply::from_bytes(&data)?;
        Ok(Vpe {
            env: env.clone(),
            sel,
            mem: MemGate::bind(env, mem_sel),
            id: placed.vpe,
            pe: placed.pe,
            name: name.to_string(),
            next_child_sel: Cell::new(1),
        })
    }

    /// The VPE capability selector.
    pub fn sel(&self) -> SelId {
        self.sel
    }

    /// The kernel-wide VPE id.
    pub fn id(&self) -> VpeId {
        self.id
    }

    /// The PE the VPE is bound to.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// The memory gate covering the VPE's local memory (for loading).
    pub fn mem(&self) -> &MemGate {
        &self.mem
    }

    /// Reserves the next child-side selector (1..16).
    ///
    /// # Panics
    ///
    /// Panics if the reserved range is exhausted.
    pub fn alloc_child_sel(&self) -> SelId {
        let raw = self.next_child_sel.get();
        assert!(
            raw < crate::env::FIRST_USER_SEL,
            "out of parent-assigned selectors"
        );
        self.next_child_sel.set(raw + 1);
        SelId::new(raw)
    }

    /// Delegates the caller's capability `own` to the child; returns the
    /// child-side selector (§4.5.3, first exchange option).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (e.g. receive gates are not delegable).
    pub async fn delegate(&self, own: SelId) -> Result<SelId> {
        let child_sel = self.alloc_child_sel();
        self.env
            .syscall(Syscall::Exchange {
                vpe: self.sel,
                own,
                other: child_sel,
                obtain: false,
            })
            .await?;
        Ok(child_sel)
    }

    /// Obtains the child's capability `other` into the caller's space.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors ([`m3_base::error::Code::InvCap`] if the child has not
    /// created the capability yet).
    pub async fn obtain(&self, other: SelId) -> Result<SelId> {
        let own = self.env.alloc_sel();
        self.env
            .syscall(Syscall::Exchange {
                vpe: self.sel,
                own,
                other,
                obtain: true,
            })
            .await?;
        Ok(own)
    }

    /// Configures endpoint `ep` *of the child* from the caller's gate
    /// capability — used to hand a child communication channels before it
    /// starts.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub async fn activate_on(&self, gate: SelId, ep: EpId) -> Result<()> {
        self.env
            .syscall(Syscall::Activate {
                vpe: self.sel,
                ep,
                gate,
            })
            .await?;
        Ok(())
    }

    /// Clones onto the VPE, like `fork` (§4.5.5): copies the caller's image
    /// to the child's local memory, starts the VPE, and runs `f` there.
    ///
    /// # Errors
    ///
    /// Propagates transfer and kernel errors.
    pub async fn run<F, Fut>(&self, f: F) -> Result<()>
    where
        F: FnOnce(Env) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        self.env.compute(costs::VPE_SETUP).await;
        // Code, static data, used heap and stack are copied to the same
        // addresses on the other PE (no virtual memory needed, §4.5.5).
        let image = vec![0u8; costs::CLONE_IMAGE_BYTES];
        self.mem.write(0, &image).await?;
        self.start_program(move |env, _argv| f(env), Vec::new())
            .await
    }

    /// Loads `path` from the filesystem onto the VPE and runs it, like
    /// `exec` (§4.5.5). Works for heterogeneous PEs: only the executable
    /// must match the target.
    ///
    /// # Errors
    ///
    /// Returns [`m3_base::error::Code::NoSuchFile`] if the path is not a registered
    /// program or cannot be read.
    pub async fn exec(&self, path: &str, argv: Vec<String>) -> Result<()> {
        self.env.compute(costs::VPE_SETUP).await;
        let program = self.env.programs().find(path)?;
        // Read the executable through the VFS and copy it to the child's
        // memory, charging the real transfers.
        let mut file = vfs::open(&self.env, path, OpenFlags::R).await?;
        let mut offset = 0u64;
        let mut buf = vec![0u8; 8192];
        loop {
            let n = file.read(&mut buf).await?;
            if n == 0 {
                break;
            }
            self.mem.write(offset, &buf[..n]).await?;
            offset += n as u64;
        }
        file.close().await?;
        self.start_program(move |env, argv| program(env, argv), argv)
            .await
    }

    async fn start_program<F, Fut>(&self, f: F, argv: Vec<String>) -> Result<()>
    where
        F: FnOnce(Env, Vec<String>) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        self.env
            .syscall(Syscall::VpeStart { vpe: self.sel })
            .await?;
        let child_env = Env::new(
            self.env.kernel(),
            &VpeBootInfo {
                vpe: self.id,
                pe: self.pe,
            },
            self.env.programs().clone(),
        );
        let name = self.name.clone();
        self.env.sim().spawn(name, async move {
            // A time-multiplexed child may start queued behind the PE's
            // resident: wait for its first slice before running (a no-op
            // for exclusively-owned PEs).
            if child_env
                .kernel()
                .sched_acquire(child_env.vpe_id())
                .await
                .is_err()
            {
                return -1;
            }
            let code = f(child_env.clone(), argv).await;
            child_env.exit(code).await;
            code
        });
        Ok(())
    }

    /// Waits until the VPE exits and returns its exit code (§4.5.5).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub async fn wait(&self) -> Result<i64> {
        let data = self.env.syscall(Syscall::VpeWait { vpe: self.sel }).await?;
        Ok(VpeWaitReply::from_bytes(&data)?.code)
    }

    /// Revokes the VPE capability; the kernel resets the PE, "making it
    /// available again for others" (§4.5.5).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub async fn revoke(self) -> Result<()> {
        self.env.syscall(Syscall::Revoke { sel: self.sel }).await?;
        Ok(())
    }
}

/// Allocates a DRAM-backed scratch memory and delegates it to the child,
/// returning (parent gate, child selector) — a common setup step.
///
/// # Errors
///
/// Propagates allocation and delegation errors.
pub async fn alloc_shared_mem(
    env: &Env,
    child: &Vpe,
    size: u64,
    perm: Perm,
) -> Result<(MemGate, SelId)> {
    let mem = MemGate::alloc(env, size, perm).await?;
    let child_sel = child.delegate(mem.sel()).await?;
    Ok((mem, child_sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{start_program, ProgramRegistry};
    use m3_base::error::Code;
    use m3_kernel::Kernel;
    use m3_platform::{Platform, PlatformConfig};

    fn boot(pes: usize) -> (Platform, Kernel) {
        let platform = Platform::new(PlatformConfig::xtensa(pes));
        let kernel = Kernel::start(&platform, PeId::new(0));
        (platform, kernel)
    }

    #[test]
    fn run_lambda_on_another_pe_and_wait() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                // The paper's §4.5.5 example: run a lambda on a same-type PE.
                let a = 4i64;
                let b = 5i64;
                let vpe = Vpe::new(&env, "test", PeRequest::Same).await.unwrap();
                vpe.run(move |_child_env| async move { a + b })
                    .await
                    .unwrap();
                vpe.wait().await.unwrap()
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 9);
    }

    #[test]
    fn child_runs_on_a_different_pe() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
                let parent_pe = env.pe();
                let child_pe = vpe.pe();
                assert_ne!(parent_pe, child_pe);
                vpe.run(|child_env| async move { child_env.pe().raw() as i64 })
                    .await
                    .unwrap();
                let reported = vpe.wait().await.unwrap();
                assert_eq!(reported, child_pe.raw() as i64);
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn delegate_memory_to_child() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
                let (mem, child_sel) = alloc_shared_mem(&env, &vpe, 4096, Perm::RW).await.unwrap();
                mem.write(0, b"from-parent").await.unwrap();
                vpe.run(move |child_env| async move {
                    let mem = MemGate::bind(&child_env, child_sel);
                    let data = mem.read(0, 11).await.unwrap();
                    assert_eq!(&data, b"from-parent");
                    mem.write(100, b"from-child").await.unwrap();
                    0
                })
                .await
                .unwrap();
                vpe.wait().await.unwrap();
                let back = mem.read(100, 10).await.unwrap();
                assert_eq!(&back, b"from-child");
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn no_free_pe_is_reported() {
        let (platform, kernel) = boot(2); // kernel + parent = all PEs
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let err = Vpe::new(&env, "child", PeRequest::Same).await.unwrap_err();
                assert_eq!(err.code(), Code::NoFreePe);
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn exit_code_propagates_through_wait() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "parent",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let vpe = Vpe::new(&env, "failing", PeRequest::Same).await.unwrap();
                vpe.run(|_env| async { -17 }).await.unwrap();
                vpe.wait().await.unwrap()
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), -17);
    }
}
