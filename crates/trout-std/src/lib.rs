//! Zero-dependency substrate for the TROUT workspace.
//!
//! Every crate in this workspace builds fully offline: the five external
//! crates the seed depended on are replaced by small in-repo equivalents,
//! all gathered here so the policy is auditable in one place:
//!
//! * [`rng`] — SplitMix64 and PCG32 deterministic generators (replaces
//!   `rand`); every experiment is reproducible bit-for-bit from a seed.
//! * [`par`] — scoped-thread data parallelism honouring `TROUT_THREADS`
//!   (replaces `rayon`); results are identical for any thread count.
//! * [`json`] — a minimal JSON value, parser and writer plus the
//!   [`json::ToJson`]/[`json::FromJson`] traits and the
//!   [`impl_json_struct!`]/[`impl_json_enum!`] macros (replaces `serde` +
//!   `serde_json` for checkpoints, traces and bench results).
//! * [`proptest_lite`] — a seeded property-test harness with bounded
//!   shrinking and failing-seed reproduction (replaces `proptest`).
//! * [`bench`] — a wall-clock micro-benchmark harness with a
//!   criterion-shaped API, emitting `BENCH_*.json` reports (replaces
//!   `criterion`).
//! * [`fsio`] — durable file I/O (atomic replace, torn-tail-safe appends)
//!   backing the serve daemon's write-ahead journal and snapshots.
//! * [`evloop`] — `poll(2)` readiness through one libc declaration, for
//!   clients that wait on several sockets at once (replaces mio).
//! * [`clock`] — injectable monotonic time ([`clock::Clock`]) with a
//!   deterministic [`clock::ManualClock`], so scheduling decisions that
//!   depend on time stay reproducible under test.
//!
//! Hermetic-build policy: no new external crates may be added to the
//! workspace without an issue justifying them; extend this crate instead.

pub mod alloc_count;
pub mod bench;
pub mod clock;
pub mod evloop;
pub mod fsio;
pub mod json;
pub mod par;
pub mod proptest_lite;
pub mod rng;
