//! # munin-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation content, numbered E1–E14 (`src/bin/repro.rs` runs each by
//! its lower-case id, e.g. `e13`). Each experiment
//! returns a [`table::Table`] so the `repro` binary can print it and the
//! test suite can assert its *shape* (who wins, where crossovers fall)
//! without hard-coding absolute numbers.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p munin-bench --release --bin repro -- all
//! ```

pub mod adapt_exp;
pub mod false_sharing;
pub mod hardware;
pub mod msgpass;
pub mod proto_exp;
pub mod read_heavy;
pub mod study;
pub mod table;
pub mod traffic;

pub use table::Table;
