//! Shared foundation types for the M3 reproduction.
//!
//! Everything in this crate is independent of the simulator, the hardware
//! models, and the operating-system personalities; it defines the vocabulary
//! the rest of the workspace speaks:
//!
//! - [`cycles::Cycles`] — simulated time,
//! - [`ids`] — strongly-typed identifiers for PEs, VPEs, endpoints, …
//! - [`error::Error`] — the M3 error codes,
//! - [`perm::Perm`] — read/write/execute permission sets,
//! - [`marshal`] — the message (un)marshalling streams, the [`marshal::Wire`]
//!   codec and the [`wire!`] macro that declares every DTU message type,
//! - [`cfg`](mod@cfg) — platform constants (SPM sizes, endpoint counts, …).
//!
//! # Examples
//!
//! ```
//! use m3_base::cycles::Cycles;
//! use m3_base::marshal::{IStream, OStream};
//!
//! let mut os = OStream::new();
//! os.push_u64(42).push_str("hello");
//! let bytes = os.into_bytes();
//!
//! let mut is = IStream::new(&bytes);
//! assert_eq!(is.pop_u64().unwrap(), 42);
//! assert_eq!(is.pop_str().unwrap(), "hello");
//! assert_eq!(Cycles::new(3) + Cycles::new(4), Cycles::new(7));
//! ```

pub mod cfg;
pub mod cycles;
pub mod error;
pub mod ids;
pub mod marshal;
pub mod perm;
pub mod rand;

pub use cycles::Cycles;
pub use error::{Code, Error};
pub use ids::{EpId, PeId, SelId, VpeId};
pub use perm::Perm;
