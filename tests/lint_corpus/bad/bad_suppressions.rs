//@path crates/noc/src/timing.rs
// Malformed suppressions: each is itself a finding and suppresses nothing.
// No justification, an empty one, an unknown rule name, a rule that clippy
// enforces now, a doc comment (prose, not a suppression), and a
// well-formed suppression that names the wrong rule.

pub const HOP: u64 = 1; // m3lint: allow(cost-citation)
pub const FLIT: u64 = 16; // m3lint: allow(cost-citation):
// m3lint: allow(uncited-cost): rule name does not exist
pub const LINK: u64 = 2;
// m3lint: allow(determinism): clippy.toml owns this rule, so it suppresses nothing here
pub const ROUTER: u64 = 3;
/// m3lint: allow(cost-citation): a doc comment is prose, not a suppression
pub const PORTS: u64 = 5;
// m3lint: allow(isolation): names the wrong rule, so the missing citation still counts
pub const LANES: u64 = 2;
