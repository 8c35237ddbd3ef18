//! `cobra-serve`: a long-running, sharded evaluation daemon with a
//! two-tier warm-state cache.
//!
//! Interactive topology exploration — the paper's fig. 10 loop of "tweak
//! the composition, re-measure the grid" — pays the full cold-start cost
//! on every invocation when driven through `cobra-bench`: process
//! startup, warm-up simulation, measurement, teardown, for every cell.
//! `cobra-serve` amortizes all of it. The daemon stays resident,
//! accepting `(topology, workload, insts)` jobs over a Unix or TCP
//! socket as newline-delimited JSON, sharding them across the same
//! `COBRA_THREADS`-sized worker pool the batch runner uses, and
//! streaming per-job progress and final reports back to each client.
//!
//! The cache has two tiers, both keyed on the FNV-1a configuration hash
//! that `.cbs` checkpoints carry in their identity header
//! ([`cobra_uarch::config_hash`]):
//!
//! - **tier 1 — results**: an exact `(config hash, workload, insts)`
//!   match returns the stored [`cobra_uarch::PerfReport`] without
//!   simulating at all;
//! - **tier 2 — checkpoints**: a job that misses tier 1 but matches a
//!   stored warm-up checkpoint at an equal-or-earlier boundary restores
//!   it and simulates only the remainder.
//!
//! Both tiers are validated by the binary containers' golden-gate
//! discipline (checksums, identity headers, size caps), so cache
//! corruption degrades to a cold run, never a wrong answer; served
//! reports are byte-identical to direct runs on every path.
//!
//! Module map: [`protocol`] defines the wire format (the normative spec
//! is `docs/SERVE_PROTOCOL.md`), [`cache`] the warm store, [`exec`] the
//! cache-aware execution path, [`server`] the daemon (admission, fair
//! scheduling, worker pool), and [`client`] the line client used by the
//! `--bench-client` load generator and the tests.
//!
//! The daemon's knobs are the `serve_*` fields of
//! [`RunConfig`](crate::RunConfig), each overridable by a `cobra-serve`
//! flag (`docs/CONFIG.md`).

pub mod cache;
pub mod client;
pub mod exec;
pub mod protocol;
pub mod server;

/// Default admission-queue capacity.
pub const DEFAULT_QUEUE_CAP: usize = 64;
/// Default per-job instruction ceiling.
pub const DEFAULT_INSTS_CAP: u64 = 5_000_000;
/// Default cache root, relative to the daemon's working directory.
pub const DEFAULT_CACHE_DIR: &str = "serve-cache";
