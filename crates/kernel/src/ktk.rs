//! The kernel-to-kernel (ktk) protocol of the sharded multikernel.
//!
//! The paper names "multiple kernel instances" as M3's scalability path
//! (§7). This module defines the wire format the shards speak to each
//! other: a shard whose admission hits `NoFreePe` forwards the request to
//! the least-loaded peer, and the peer's reply carries *capability
//! descriptors* — self-contained descriptions of the hardware resource a
//! capability names — that the requesting kernel installs into its own
//! tables. Only capabilities whose hardware address is fully resolved can
//! cross a shard boundary: memory regions and activated send gates.
//! Receive gates stay with their shard, exactly like they cannot be
//! delegated between VPEs (§4.5.4): messages may arrive at any time, so
//! the backing ring buffer cannot move.
//!
//! Every message starts with a fixed header `(src_shard, free_pes)`: the
//! sender piggybacks its current free-PE count on every message, so each
//! kernel maintains a passively refreshed load view of its peers and
//! placement needs no extra round trip.
//!
//! The transport is deliberately abstract (`ShardCtx` carries a send
//! closure): inside one `Sim` the bytes ride the NoC between the kernel
//! PEs; across PDES islands they ride the island boundary ports. Either
//! way the messages are plain timestamped bytes, so determinism is
//! preserved for any worker count.

use m3_base::error::{Code, Error, Result};
use m3_base::{wire, Perm};

use crate::protocol::{PeRequest, MAX_EXCHANGE_CAPS};

wire! {
    /// A self-contained description of a capability that may cross a shard
    /// boundary. The receiving kernel re-wraps the descriptor into a kernel
    /// object of its own; the hardware address (PE, offset / endpoint) stays
    /// authoritative, so access goes straight over the NoC without involving
    /// the owning shard again.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum CapDesc: u8 {
        /// A memory region on some node (DRAM module or a PE's SPM). Never
        /// marked owned on the receiving side: the region's allocator lives
        /// with the origin shard.
        Mem = 0 {
            /// The node whose memory this names.
            pe: u32,
            /// Start offset within that node's memory.
            offset: u64,
            /// Region size in bytes.
            size: u64,
            /// Access permissions.
            perm: Perm,
        },
        /// An *activated* send gate: the receive gate it targets is pinned
        /// to `(pe, ep)`, so a foreign VPE can be given a send endpoint to
        /// it without the origin shard mediating each message.
        SGate = 1 {
            /// PE of the activated receive gate.
            pe: u32,
            /// Endpoint of the activated receive gate.
            ep: u32,
            /// Label stamped into every message.
            label: u64,
            /// Credit budget; `0` encodes unlimited.
            credits: u32,
            /// Maximum payload bytes per message.
            max_payload: u32,
        },
    }
}

wire! {
    /// A peer's reply to a ktk request. `a`/`b` carry the two scalar
    /// results a request can produce (e.g. VPE id + PE id for `PlaceVpe`,
    /// the exit code for `WaitVpe`, the session ident for `OpenSess`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct KtkReply {
        /// `None` means the peer accepted the request.
        pub code: Option<Code>,
        /// First scalar result.
        pub a: u64,
        /// Second scalar result.
        pub b: u64,
        /// Capability descriptors handed back (obtain direction).
        pub caps: Vec<CapDesc> [max MAX_EXCHANGE_CAPS],
        /// Service-specific reply bytes (session exchanges).
        pub args: Vec<u8>,
    }
}

impl KtkReply {
    /// A success reply with two scalar results.
    pub fn ok(a: u64, b: u64) -> KtkReply {
        KtkReply {
            code: None,
            a,
            b,
            caps: Vec::new(),
            args: Vec::new(),
        }
    }

    /// An error reply.
    pub fn err(code: Code) -> KtkReply {
        KtkReply {
            code: Some(code),
            a: 0,
            b: 0,
            caps: Vec::new(),
            args: Vec::new(),
        }
    }

    /// Converts the reply into a `Result` over itself.
    ///
    /// # Errors
    ///
    /// Returns the carried error code, if any.
    pub fn into_result(self) -> Result<KtkReply> {
        match self.code {
            None => Ok(self),
            Some(code) => Err(Error::new(code)),
        }
    }
}

wire! {
    /// A kernel-to-kernel message. Requests carry a sender-chosen `req_id`;
    /// the peer answers with a [`KtkMsg::Reply`] echoing it. `RevokeVpe` and
    /// `RevokeCap` are fire-and-forget: revocation is idempotent and the
    /// sender holds no state that depends on the answer.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum KtkMsg: u32, header(src_shard: u32, free_pes: u32) {
        /// Load announcement; the header's free-PE count is the payload.
        Hello = 0 as "hello",
        /// Place a VPE on one of the receiver's PEs (cross-shard
        /// `CreateVpe` spill-over). The sender resolves `Same` to a concrete
        /// type before forwarding — the receiver cannot know the caller's
        /// PE.
        PlaceVpe = 1 as "place_vpe" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// Requested PE type.
            want: PeRequest,
            /// Human-readable VPE name.
            name: String,
        },
        /// Start a VPE previously placed via `PlaceVpe`.
        StartVpe = 2 as "start_vpe" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// The receiver-side VPE id.
            vpe: u32,
        },
        /// Wait for a remotely placed VPE to exit; the reply's `a` carries
        /// the exit code as `i64` bits.
        WaitVpe = 3 as "wait_vpe" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// The receiver-side VPE id.
            vpe: u32,
        },
        /// Destroy a remotely placed VPE (fire-and-forget; the cross-shard
        /// mirror of revoking a VPE capability, §4.5.5).
        RevokeVpe = 4 as "revoke_vpe" {
            /// The receiver-side VPE id.
            vpe: u32,
        },
        /// Install a capability descriptor into a remotely placed VPE's
        /// table (cross-shard delegation, §4.5.3 first option).
        DelegateCap = 5 as "delegate_cap" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// The receiver-side VPE id.
            vpe: u32,
            /// Receiver-side selector to fill.
            sel: u32,
            /// What to install.
            desc: CapDesc,
        },
        /// Remove a previously delegated capability (fire-and-forget leg of
        /// a cross-shard recursive revoke, §4.5.3).
        RevokeCap = 6 as "revoke_cap" {
            /// The receiver-side VPE id.
            vpe: u32,
            /// Receiver-side selector to revoke.
            sel: u32,
        },
        /// Open a session with a service registered at the receiver (remote
        /// mount path). The reply's `a` carries the session ident.
        OpenSess = 7 as "open_sess" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// Global service name (e.g. `"m3fs"`).
            name: String,
            /// Client-provided argument.
            arg: u64,
        },
        /// A capability exchange over a remotely opened session: the
        /// receiver forwards to its local service and descriptor-izes the
        /// result.
        ExchangeSess = 8 as "exchange_sess" {
            /// Request id echoed by the reply.
            req_id: u64,
            /// Service name (sessions are stateless on the origin side).
            serv: String,
            /// The service-chosen session identifier.
            ident: u64,
            /// `true` = obtain (service -> caller), `false` = delegate.
            obtain: bool,
            /// Number of capabilities the client offers/requests.
            cap_count: u32,
            /// Descriptors of the caller's capabilities (delegate
            /// direction).
            descs: Vec<CapDesc> [max MAX_EXCHANGE_CAPS],
            /// Service-specific request bytes.
            args: Vec<u8>,
        },
        /// The answer to a request, echoing its `req_id`.
        Reply = 9 as "reply" {
            /// The request this answers.
            req_id: u64,
            /// The outcome.
            reply: KtkReply,
        },
    }
}

/// Picks the spill-over target among peer shards: the one with the most
/// free PEs, ties going to the earliest candidate (callers pass ascending
/// shard ids, so ties resolve to the lowest id). Implemented on the shared
/// `m3-sched` least-loaded policy by treating occupancy as the complement
/// of the advertised free count, so both levels of placement — VPEs onto
/// PEs and requests onto shards — follow one rule.
pub fn choose_peer(candidates: impl IntoIterator<Item = (u32, usize)>) -> Option<u32> {
    m3_sched::least_loaded(
        candidates
            .into_iter()
            .map(|(shard, free)| (shard, usize::MAX - free)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_base::marshal::OStream;

    #[test]
    fn unknown_opcode_is_bad_message() {
        let mut os = OStream::new();
        os.push_u32(0).push_u32(0).push_u32(0xffff);
        assert_eq!(
            KtkMsg::from_bytes(os.as_bytes()).unwrap_err().code(),
            Code::BadMessage
        );
    }

    #[test]
    fn reply_into_result() {
        assert!(KtkMsg::Hello.name() == "hello");
        assert_eq!(KtkReply::ok(1, 2).into_result().unwrap().a, 1);
        assert_eq!(
            KtkReply::err(Code::VpeGone)
                .into_result()
                .unwrap_err()
                .code(),
            Code::VpeGone
        );
    }

    #[test]
    fn choose_peer_prefers_most_free_then_lowest_id() {
        assert_eq!(choose_peer(Vec::new()), None);
        assert_eq!(choose_peer([(1u32, 0usize)]), Some(1));
        assert_eq!(choose_peer([(1, 2), (2, 5), (3, 4)]), Some(2));
        // Ties go to the earliest candidate (lowest shard id).
        assert_eq!(choose_peer([(1, 3), (2, 3)]), Some(1));
        assert_eq!(choose_peer([(4, 0), (9, 0)]), Some(4));
    }
}
