//! Multi-tenant serving daemon for `taco-workspaces`.
//!
//! [`Server`] turns the single-call [`Engine`](taco_runtime::Engine) into a
//! long-running front end fit for many concurrent tenants: a bounded
//! admission queue with typed backpressure ([`Rejected`]), per-tenant
//! [`TenantPolicy`] quotas (resource budget,
//! token-bucket rate, in-flight cap), earliest-deadline-first dispatch into
//! a supervised worker pool, overload shedding at admission, and graceful
//! drain. Every request runs under the same reliability machinery the rest
//! of the stack provides — transactional rollback, the degrade-and-retry
//! ladder, warm-kernel coalescing — so one tenant's pathological request
//! degrades *its own* [`Outcome`], never the process or a neighbour's
//! result.
//!
//! Threading is plain `std`: scoped worker threads, a mutex + condvar run
//! queue, and mpsc outcome channels. No async runtime.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use taco_core::{IndexStmt, ResourceBudget};
//! use taco_ir::expr::{sum, IndexVar, TensorVar};
//! use taco_ir::notation::IndexAssignment;
//! use taco_lower::LowerOptions;
//! use taco_serve::{Request, Server, TenantPolicy};
//! use taco_tensor::{Format, Tensor};
//!
//! let n = 8;
//! let a = TensorVar::new("A", vec![n, n], Format::csr());
//! let b = TensorVar::new("B", vec![n, n], Format::csr());
//! let c = TensorVar::new("C", vec![n, n], Format::csr());
//! let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
//! let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
//! let mut spgemm = IndexStmt::new(IndexAssignment::assign(
//!     a.access([i.clone(), j.clone()]),
//!     sum(k.clone(), mul.clone()),
//! ))?;
//! spgemm.reorder(&k, &j)?;
//! let w = TensorVar::new("w", vec![n], Format::dvec());
//! spgemm.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w)?;
//!
//! let bt = Arc::new(Tensor::from_entries(vec![n, n], Format::csr(),
//!     vec![(vec![0, 1], 2.0), (vec![1, 0], 3.0)])?);
//! let ct = Arc::new(Tensor::from_entries(vec![n, n], Format::csr(),
//!     vec![(vec![1, 3], 5.0), (vec![0, 2], 7.0)])?);
//!
//! let server = Server::builder()
//!     .workers(2)
//!     .tenant("acme", TenantPolicy::default()
//!         .with_budget(ResourceBudget::unlimited().with_max_workspace_bytes(1 << 20))
//!         .with_rate(100.0, 10))
//!     .build();
//!
//! let ticket = server.submit(Request::new(
//!     "acme",
//!     spgemm,
//!     LowerOptions::fused("spgemm"),
//!     vec![("B".into(), bt), ("C".into(), ct)],
//!     Duration::from_secs(5),
//! ))?;
//! let outcome = ticket.wait();
//! assert_eq!(outcome.result().unwrap().to_dense().get(&[0, 3]), 10.0);
//!
//! server.drain();
//! assert_eq!(server.stats().totals.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod admission;
mod policy;
mod server;
mod stats;

pub use policy::TenantPolicy;
pub use server::{
    Outcome, Priority, Quota, Rejected, Request, Server, ServerBuilder, Ticket,
};
pub use stats::{ServerStats, TenantCounters};
