//! Three modules, each kept for a reason the rule can see.

pub mod grouped;
pub mod reexported;
// mgopt-lint: allow(orphan_module) — the CSV seam for measured traces, kept without a caller yet
pub mod seam;

pub use reexported::Gauge;
