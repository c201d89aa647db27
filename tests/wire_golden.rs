//! Byte-layout pins for every DTU message format.
//!
//! Message lengths drive DTU and NoC cycle costs, so a layout change moves
//! simulated time even when every round trip still succeeds. Round-trip
//! tests cannot see such a change: they pass for any self-consistent
//! format. These pins assert the exact encoded bytes (hex) of one instance
//! of every variant of every message type, and the `name()` string that
//! traces and task names carry. The instances use pairwise distinct field
//! values, so swapping two fields of the same width also shows up.

use m3_base::error::Code;
use m3_base::{EpId, Perm, SelId};
use m3_kernel::ktk::{CapDesc, KtkMsg, KtkReply};
use m3_kernel::protocol::{PeRequest, ServiceReply, ServiceRequest, Syscall, SyscallReply};
use m3_platform::PeType;

/// Lower-case hex of `bytes`, two digits per byte, no separators.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Collects every mismatch of one test, so a drift reports all the
/// affected messages at once instead of only the first.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn bytes(&mut self, what: &str, got: &[u8], want: &str) {
        let got = hex(got);
        if got != want {
            self.0.push(format!("{what}: encoded {got}, pinned {want}"));
        }
    }

    fn named(&mut self, got_name: &str, want_name: &str, got: &[u8], want: &str) {
        if got_name != want_name {
            self.0
                .push(format!("name {got_name:?}, pinned {want_name:?}"));
        }
        self.bytes(want_name, got, want);
    }

    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "wire layout drift:\n{}",
            self.0.join("\n")
        );
    }
}

#[test]
fn syscall_layouts() {
    let mut p = Pins::default();
    let cases = [
        (Syscall::Noop, "Noop", "00000000"),
        (
            Syscall::CreateRGate {
                dst: SelId::new(3),
                slots: 8,
                slot_size: 512,
            },
            "CreateRGate",
            "01000000030000000800000000020000",
        ),
        (
            Syscall::CreateSGate {
                dst: SelId::new(4),
                rgate: SelId::new(3),
                label: 0x1122_3344_5566_7788,
                credits: 2,
            },
            "CreateSGate",
            "020000000400000003000000887766554433221102000000",
        ),
        (
            Syscall::AllocMem {
                dst: SelId::new(5),
                size: 1 << 20,
                perm: Perm::RW,
            },
            "AllocMem",
            "0300000005000000000010000000000003",
        ),
        (
            Syscall::DeriveMem {
                dst: SelId::new(6),
                src: SelId::new(5),
                offset: 4096,
                size: 8192,
                perm: Perm::R,
            },
            "DeriveMem",
            "0400000006000000050000000010000000000000002000000000000001",
        ),
        (
            Syscall::CreateVpe {
                dst: SelId::new(7),
                mem_dst: SelId::new(8),
                pe: PeRequest::Any,
                name: "w".to_string(),
            },
            "CreateVpe",
            "050000000700000008000000000100000077",
        ),
        (
            Syscall::CreateVpe {
                dst: SelId::new(7),
                mem_dst: SelId::new(8),
                pe: PeRequest::Type(PeType::Xtensa),
                name: "x".to_string(),
            },
            "CreateVpe",
            "05000000070000000800000001000100000078",
        ),
        (
            Syscall::CreateVpe {
                dst: SelId::new(7),
                mem_dst: SelId::new(8),
                pe: PeRequest::Type(PeType::Arm),
                name: "arm".to_string(),
            },
            "CreateVpe",
            "05000000070000000800000001010300000061726d",
        ),
        (
            Syscall::CreateVpe {
                dst: SelId::new(7),
                mem_dst: SelId::new(8),
                pe: PeRequest::Type(PeType::FftAccel),
                name: "fft".to_string(),
            },
            "CreateVpe",
            "050000000700000008000000010203000000666674",
        ),
        (
            Syscall::CreateVpe {
                dst: SelId::new(9),
                mem_dst: SelId::new(10),
                pe: PeRequest::Same,
                name: "clone".to_string(),
            },
            "CreateVpe",
            "05000000090000000a0000000205000000636c6f6e65",
        ),
        (
            Syscall::VpeStart { vpe: SelId::new(7) },
            "VpeStart",
            "0600000007000000",
        ),
        (
            Syscall::VpeWait { vpe: SelId::new(7) },
            "VpeWait",
            "0700000007000000",
        ),
        (
            Syscall::Activate {
                vpe: SelId::new(0),
                ep: EpId::new(3),
                gate: SelId::new(4),
            },
            "Activate",
            "08000000000000000300000004000000",
        ),
        (
            Syscall::CreateSrv {
                dst: SelId::new(9),
                rgate: SelId::new(3),
                name: "m3fs".to_string(),
            },
            "CreateSrv",
            "090000000900000003000000040000006d336673",
        ),
        (
            Syscall::OpenSess {
                dst: SelId::new(10),
                name: "m3fs".to_string(),
                arg: 1,
            },
            "OpenSess",
            "0a0000000a000000040000006d3366730100000000000000",
        ),
        (
            Syscall::ExchangeSess {
                sess: SelId::new(10),
                obtain: true,
                caps: vec![SelId::new(11), SelId::new(12)],
                args: vec![1, 2, 3],
            },
            "ExchangeSess",
            "0b0000000a00000001020000000b0000000c00000003000000010203",
        ),
        (
            Syscall::Exchange {
                vpe: SelId::new(7),
                own: SelId::new(4),
                other: SelId::new(2),
                obtain: false,
            },
            "Exchange",
            "0c00000007000000040000000200000000",
        ),
        (
            Syscall::Revoke { sel: SelId::new(4) },
            "Revoke",
            "0d00000004000000",
        ),
        (
            Syscall::Exit { code: -2 },
            "Exit",
            "0e000000feffffffffffffff",
        ),
        (
            Syscall::PageFault {
                dst: SelId::new(20),
                virt: 0x1000_2034,
                access: Perm::W,
            },
            "PageFault",
            "0f00000014000000342000100000000002",
        ),
        (
            Syscall::Unmap { virt: 0x1000_2000 },
            "Unmap",
            "100000000020001000000000",
        ),
    ];
    for (call, name, want) in &cases {
        p.named(call.name(), name, &call.to_bytes(), want);
    }
    p.finish();
}

#[test]
fn syscall_reply_layouts() {
    let mut p = Pins::default();
    p.bytes("ok", &SyscallReply::ok().to_bytes(), "0000000000000000");
    p.bytes(
        "ok_with",
        &SyscallReply::ok_with(vec![0xaa, 0xbb]).to_bytes(),
        "0000000002000000aabb",
    );
    p.bytes(
        "err",
        &SyscallReply::err(Code::NoPerm).to_bytes(),
        "0300000000000000",
    );
    p.finish();
}

#[test]
fn service_layouts() {
    let mut p = Pins::default();
    p.bytes(
        "Open",
        &ServiceRequest::Open { arg: 42 }.to_bytes(),
        "000000002a00000000000000",
    );
    p.bytes(
        "Exchange",
        &ServiceRequest::Exchange {
            ident: 7,
            obtain: true,
            cap_count: 2,
            args: vec![5, 6],
        }
        .to_bytes(),
        "0100000007000000000000000102000000020000000506",
    );
    p.bytes(
        "Close",
        &ServiceRequest::Close { ident: 9 }.to_bytes(),
        "020000000900000000000000",
    );
    p.bytes(
        "reply ok",
        &ServiceReply {
            error: None,
            ident: 99,
            caps: vec![SelId::new(1), SelId::new(2)],
            args: vec![4, 2],
        }
        .to_bytes(),
        "000000006300000000000000020000000100000002000000020000000402",
    );
    p.bytes(
        "reply err",
        &ServiceReply::err(Code::NoPerm).to_bytes(),
        "0300000000000000000000000000000000000000",
    );
    p.finish();
}

#[test]
fn ktk_layouts() {
    let mut p = Pins::default();
    let mem = CapDesc::Mem {
        pe: 9,
        offset: 0x4000,
        size: 8192,
        perm: Perm::RW,
    };
    let sgate = CapDesc::SGate {
        pe: 2,
        ep: 3,
        label: 0xfeed,
        credits: 8,
        max_payload: 488,
    };
    let cases = [
        (KtkMsg::Hello, "hello", "030000001100000000000000"),
        (
            KtkMsg::PlaceVpe {
                req_id: 7,
                name: "worker".to_string(),
                want: PeRequest::Any,
            },
            "place_vpe",
            "03000000110000000100000007000000000000000006000000776f726b6572",
        ),
        (
            KtkMsg::PlaceVpe {
                req_id: 8,
                name: "fft".to_string(),
                want: PeRequest::Type(PeType::FftAccel),
            },
            "place_vpe",
            "0300000011000000010000000800000000000000010203000000666674",
        ),
        (
            KtkMsg::StartVpe { req_id: 9, vpe: 4 },
            "start_vpe",
            "030000001100000002000000090000000000000004000000",
        ),
        (KtkMsg::WaitVpe { req_id: 10, vpe: 5 }, "wait_vpe", "0300000011000000030000000a0000000000000005000000"),
        (KtkMsg::RevokeVpe { vpe: 6 }, "revoke_vpe", "03000000110000000400000006000000"),
        (
            KtkMsg::DelegateCap {
                req_id: 11,
                vpe: 4,
                sel: 16,
                desc: mem.clone(),
            },
            "delegate_cap",
            "0300000011000000050000000b00000000000000040000001000000000090000000040000000000000002000000000000003",
        ),
        (
            KtkMsg::DelegateCap {
                req_id: 12,
                vpe: 4,
                sel: 17,
                desc: sgate.clone(),
            },
            "delegate_cap",
            "0300000011000000050000000c000000000000000400000011000000010200000003000000edfe00000000000008000000e8010000",
        ),
        (KtkMsg::RevokeCap { vpe: 4, sel: 16 }, "revoke_cap", "0300000011000000060000000400000010000000"),
        (
            KtkMsg::OpenSess {
                req_id: 13,
                name: "m3fs".to_string(),
                arg: 1,
            },
            "open_sess",
            "0300000011000000070000000d00000000000000040000006d3366730100000000000000",
        ),
        (
            KtkMsg::ExchangeSess {
                req_id: 14,
                serv: "m3fs".to_string(),
                ident: 42,
                obtain: true,
                cap_count: 1,
                descs: vec![mem.clone(), sgate.clone()],
                args: vec![1, 2, 3],
            },
            "exchange_sess",
            "0300000011000000080000000e00000000000000040000006d3366732a0000000000000001010000000200000000090000000040000000000000002000000000000003010200000003000000edfe00000000000008000000e801000003000000010203",
        ),
        (
            KtkMsg::Reply {
                req_id: 14,
                reply: KtkReply {
                    code: None,
                    a: 5,
                    b: 6,
                    caps: vec![sgate.clone()],
                    args: vec![9],
                },
            },
            "reply",
            "0300000011000000090000000e00000000000000000000000500000000000000060000000000000001000000010200000003000000edfe00000000000008000000e80100000100000009",
        ),
        (
            KtkMsg::Reply {
                req_id: 15,
                reply: KtkReply::err(Code::NoFreePe),
            },
            "reply",
            "0300000011000000090000000f0000000000000007000000000000000000000000000000000000000000000000000000",
        ),
    ];
    for (msg, name, want) in &cases {
        p.named(msg.name(), name, &msg.to_bytes(3, 17), want);
    }
    p.finish();
}

#[test]
fn m3fs_layouts() {
    use m3_fs::proto::{LocateArgs, LocateReply, MetaRequest, Obtain};

    let mut p = Pins::default();
    let cases = [
        (
            MetaRequest::Open {
                path: "/a/b".into(),
                flags: 3,
            },
            "Open",
            "00040000002f612f6203000000",
        ),
        (
            MetaRequest::Close { fd: 7, size: 4096 },
            "Close",
            "0107000000000000000010000000000000",
        ),
        (
            MetaRequest::Stat { path: "/x".into() },
            "Stat",
            "02020000002f78",
        ),
        (
            MetaRequest::Mkdir { path: "/d".into() },
            "Mkdir",
            "03020000002f64",
        ),
        (
            MetaRequest::Rmdir { path: "/e".into() },
            "Rmdir",
            "04020000002f65",
        ),
        (
            MetaRequest::Unlink { path: "/f".into() },
            "Unlink",
            "05020000002f66",
        ),
        (
            MetaRequest::Link {
                old: "/f".into(),
                new: "/g".into(),
            },
            "Link",
            "06020000002f66020000002f67",
        ),
        (
            MetaRequest::ReadDir {
                path: "/d".into(),
                start: 16,
            },
            "ReadDir",
            "07020000002f6410000000",
        ),
        (MetaRequest::Fsck, "Fsck", "08"),
    ];
    for (req, name, want) in &cases {
        p.named(req.name(), name, &req.to_bytes(), want);
    }
    p.bytes(
        "meta reply ok",
        &SyscallReply::ok_with(vec![1, 2]).to_bytes(),
        "00000000020000000102",
    );
    p.bytes(
        "meta reply err",
        &SyscallReply::err(Code::NoSuchFile).to_bytes(),
        "0a00000000000000",
    );
    p.bytes("obtain meta gate", &Obtain::MetaGate.to_bytes(), "00");
    p.bytes(
        "obtain locate",
        &Obtain::Locate(LocateArgs {
            fd: 3,
            offset: 1 << 20,
            write: true,
            want_blocks: 256,
        })
        .to_bytes(),
        "0103000000000000000000100000000000010001000000000000",
    );
    p.bytes(
        "locate reply",
        &LocateReply {
            ext_file_off: 0x2000,
            ext_bytes: 256 * 1024,
        }
        .to_bytes(),
        "00200000000000000000040000000000",
    );
    p.finish();
}

#[test]
fn kv_layouts() {
    use m3_serve::{KvOp, KvReply};

    let mut p = Pins::default();
    let cases = [
        (KvOp::Get { key: 3 }, "Get", "010300000000000000"),
        (
            KvOp::Put { key: 7, tag: 42 },
            "Put",
            "0207000000000000002a000000",
        ),
        (KvOp::Scan, "Scan", "03"),
    ];
    for (op, name, want) in &cases {
        p.named(op.name(), name, &op.to_bytes(), want);
    }
    p.bytes(
        "reply ok",
        &KvReply::ok(4096).to_bytes(),
        "000010000000000000",
    );
    p.bytes(
        "reply err",
        &KvReply::err().to_bytes(),
        "010000000000000000",
    );
    p.finish();
}

/// Per-call reply payloads: the `data` a successful syscall or m3fs meta
/// request carries inside its reply.
#[test]
fn reply_payload_layouts() {
    use m3_base::{PeId, VpeId};
    use m3_fs::proto::{FsckReply, OpenReply, ReadDirEntry, ReadDirReply, StatReply};
    use m3_kernel::protocol::{AllocMemReply, CreateVpeReply, PageFaultReply, VpeWaitReply};

    let mut p = Pins::default();
    let placed = CreateVpeReply {
        vpe: VpeId::new(12),
        pe: PeId::new(34),
    };
    p.bytes(
        "CreateVpe (vpe, pe)",
        &placed.to_bytes(),
        "0c00000022000000",
    );
    p.bytes(
        "VpeWait exit code",
        &VpeWaitReply { code: -3 }.to_bytes(),
        "fdffffffffffffff",
    );
    p.bytes(
        "AllocMem offset",
        &AllocMemReply { offset: 0x8000 }.to_bytes(),
        "0080000000000000",
    );
    p.bytes(
        "PageFault page base",
        &PageFaultReply {
            page_base: 0x1000_2000,
        }
        .to_bytes(),
        "0020001000000000",
    );
    let opened = OpenReply {
        fd: 5,
        size: 1234,
        extents: 2,
    };
    p.bytes(
        "m3fs Open",
        &opened.to_bytes(),
        "0500000000000000d20400000000000002000000",
    );
    let stat = StatReply {
        size: 1234,
        is_dir: false,
        extents: 2,
        links: 1,
    };
    p.bytes(
        "m3fs Stat",
        &stat.to_bytes(),
        "d204000000000000000200000001000000",
    );
    let fsck = FsckReply {
        errors: 0,
        inodes: 17,
        used_blocks: 300,
    };
    p.bytes(
        "m3fs Fsck",
        &fsck.to_bytes(),
        "0000000011000000000000002c01000000000000",
    );
    let page = ReadDirReply {
        entries: vec![
            ReadDirEntry {
                name: "a".into(),
                is_dir: false,
            },
            ReadDirEntry {
                name: "sub".into(),
                is_dir: true,
            },
        ],
        done: true,
    };
    p.bytes(
        "m3fs ReadDir",
        &page.to_bytes(),
        "02000000010000006100030000007375620101",
    );
    p.finish();
}
