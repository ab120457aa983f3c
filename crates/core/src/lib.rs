//! # relviz-core
//!
//! The unifying layer of the workspace — what the tutorial's Parts 1, 2
//! and 6 describe:
//!
//! * [`suite`] — the canonical sailors–reserves–boats queries (Q1–Q8) in
//!   all five textual languages, with machine-checked cross-language
//!   equivalence (experiment E2's substrate),
//! * [`pipeline`] — the end-to-end *query visualization* pipeline of
//!   Figs. 1–2: SQL → TRC → diagram → layout → SVG/ASCII,
//! * [`patterns`] — *relational query patterns* and pattern isomorphism
//!   (the "correspondence principle" of Part 2),
//! * [`principles`] — the principles of query visualization as executable
//!   checkers (unambiguity, invertibility, pattern preservation),
//! * [`lint`] — Part 6's "three abuses of the line" as a diagram linter.

pub mod lint;
pub mod patterns;
pub mod pipeline;
pub mod principles;
pub mod suite;

pub use pipeline::{Backend, Engine, ExecOptions, PipelineOutput, QueryVisualizer, VisFormalism};
pub use suite::{SuiteQuery, SUITE};
