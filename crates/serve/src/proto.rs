//! The key-value wire protocol and the on-disk database image.
//!
//! The store is the `m3_apps::sqlwork` row store served request-at-a-time:
//! page 0 is the schema page (the full DDL statement, length-prefixed),
//! pages 1..=[`KEYS`] hold one row each in the slotted-page encoding that
//! [`m3_apps::sqlwork::decode_rows`] parses. Keys address rows; a `Put`
//! overwrites the row's page in place, so the database never grows and the
//! workload is stationary — every load point of the fig9 sweep measures
//! the same store.
//!
//! Requests and replies are small control messages (M3 idiom: bulk data
//! moves over memory capabilities, §4.5.8; here the values are
//! single-page rows the *server* materialises, so only keys and status
//! travel in messages). Their generated `from_bytes` return
//! [`Code::BadMessage`](m3_base::Code::BadMessage) for truncated bytes or
//! an unknown opcode.

use m3_apps::sqlwork::PAGE_SIZE;
use m3_base::wire;

/// Path of the database file (on m3fs and on the lx tmpfs).
pub const DB_PATH: &str = "/kv.db";

/// Number of row keys (and row pages) in the store.
pub const KEYS: u64 = 8;

/// Total pages of the database image: the schema page plus one per row.
pub const PAGES: u64 = KEYS + 1;

/// Capability-exchange tag: obtain a send gate to the request channel.
pub const OBTAIN_REQ_GATE: u8 = 1;

wire! {
    /// One client request.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum KvOp: u8 {
        /// Read the row at `key`.
        Get = 1 {
            /// Row key, `0..KEYS`.
            key: u64,
        },
        /// Overwrite the row at `key` with a row stamped `tag`.
        Put = 2 {
            /// Row key, `0..KEYS`.
            key: u64,
            /// Value stamp written into the row name.
            tag: u32,
        },
        /// Read every page of the store.
        Scan = 3,
    }
}

wire! {
    /// The server's reply.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct KvReply {
        /// `0` for success, otherwise an [`Code`](m3_base::Code) discriminant.
        pub status: u8,
        /// Database bytes the request touched (read or written).
        pub bytes: u64,
    }
}

impl KvReply {
    /// A success reply that touched `bytes` database bytes.
    pub fn ok(bytes: u64) -> KvReply {
        KvReply { status: 0, bytes }
    }

    /// An error reply.
    pub fn err() -> KvReply {
        KvReply {
            status: 1,
            bytes: 0,
        }
    }
}

/// Encodes the row page for `key` stamped with `tag` — the slotted-page
/// layout [`m3_apps::sqlwork::decode_rows`] expects (id, length-prefixed
/// name).
pub fn row_page(key: u64, tag: u32) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    page[0..8].copy_from_slice(&key.to_le_bytes());
    let name = format!("row-{key}-v{tag}");
    let bytes = name.as_bytes();
    page[8] = bytes.len() as u8;
    page[9..9 + bytes.len()].copy_from_slice(bytes);
    page
}

/// The initial database image: the sqlwork schema page followed by one
/// version-0 row page per key.
pub fn initial_db() -> Vec<u8> {
    let ops = m3_apps::sqlwork::workload();
    let mut db = ops[0].page.clone().unwrap_or_else(|| vec![0u8; PAGE_SIZE]);
    for key in 0..KEYS {
        db.extend_from_slice(&row_page(key, 0));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip() {
        for op in [
            KvOp::Get { key: 3 },
            KvOp::Put { key: 7, tag: 42 },
            KvOp::Scan,
        ] {
            assert_eq!(KvOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        assert!(KvOp::from_bytes(&[9]).is_err());
        let reply = KvReply::ok(4096);
        assert_eq!(KvReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
    }

    #[test]
    fn initial_db_parses_as_sqlwork_pages() {
        let db = initial_db();
        assert_eq!(db.len(), PAGES as usize * PAGE_SIZE);
        // Page 0 carries the full DDL statement.
        let ddl = m3_apps::sqlwork::decode_schema(&db[..PAGE_SIZE]).unwrap();
        assert!(ddl.ends_with("TEXT)"), "{ddl}");
        // Row pages decode with the sqlwork row parser.
        let rows = m3_apps::sqlwork::decode_rows(&db).unwrap();
        assert_eq!(rows.len(), KEYS as usize);
        assert_eq!(rows[5], (5, "row-5-v0".to_string()));
        // A Put replaces the page in place without changing the shape.
        let updated = row_page(5, 9);
        assert_eq!(updated.len(), PAGE_SIZE);
    }
}
