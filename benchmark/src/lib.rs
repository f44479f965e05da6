//! The repo's benchmark: five workloads under the real `LD_PRELOAD`
//! library against the same work on flat files, plus a traced pass that
//! budgets the time per layer from outside. See `README.md`.

pub mod compare;
pub mod e2e;
pub mod layers;
pub mod oplist;
pub mod proc;
pub mod replay;
pub mod report;
pub mod span;
pub mod stage;
pub mod timed;
pub mod workloads;
