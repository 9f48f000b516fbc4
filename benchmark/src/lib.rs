//! The repository benchmark as a library, so that its own tests can use
//! its JSON reader and metric tables. `main.rs` is the command line.
//!
//! Module map: `sut` is the only module that names the system under test;
//! `gen`, `workloads`, `reference` and `refloop` are benchmark-owned inputs
//! and references; `epoch` measures in a child process, `run` aggregates in
//! the parent, `repeat` is the self-check; `metrics` declares what is
//! printed.

pub mod alloc;
pub mod epoch;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod reference;
pub mod refloop;
pub mod repeat;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
