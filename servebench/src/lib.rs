//! Closed-loop wall-clock serving benchmark over the ClusterKV stack.
//!
//! One engine configuration serves two closed-loop workloads through
//! `clusterkv_sched::Scheduler`; see `README.md` in this directory for why
//! each workload exists and which metric each layer should move. Everything
//! is measured from outside the library crates: wall time around the public
//! scheduler calls ([`closed_loop`]) and a timing wrapper installed as the
//! engine's selection policy ([`probe`]).

pub mod analysis;
pub mod clock;
pub mod closed_loop;
pub mod config;
pub mod pins;
pub mod probe;
pub mod ticklog;
