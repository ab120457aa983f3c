//! `relviz serve` — the resident query service.
//!
//! One-shot `relviz run` pays parse + plan + index build on every
//! invocation; a visualization front-end asking for dozens of
//! per-query diagrams pays it dozens of times. This crate keeps the
//! engine resident instead:
//!
//! * [`catalog`] — named databases behind `Arc` snapshots with a
//!   monotone per-database generation counter; queries never block
//!   mutations and never observe half-applied ones.
//! * [`cache`] — a bounded LRU of prepared physical plans keyed on
//!   `(db, generation, lang, engine, opt config, query text)`, so a
//!   generation bump invalidates by construction.
//! * [`wire`] — `relviz-wire-v1`, a newline-delimited JSON protocol
//!   (with a vendored dependency-free parser), embedding the
//!   `relviz-stats-v1` EXPLAIN ANALYZE document for `analyze` requests.
//! * [`server`] — frame dispatch plus the `--stdio` and `--port N`
//!   transports; thread-per-connection, one shared [`Server`].
//!
//! Every request resolves its own optimizer configuration and worker
//! width at construction, into the `ExecOptions` every exec entry point
//! takes; nothing on the request path reads process-global state.

pub mod cache;
pub mod catalog;
pub mod server;
pub mod wire;

pub use cache::{CacheStats, Lang, PlanCache, PlanKey, Prepared};
pub use catalog::{Catalog, CatalogRow, Snapshot};
pub use server::{Server, ServerConfig};
pub use wire::{error_frame, escape, Json, WIRE_SCHEMA};
