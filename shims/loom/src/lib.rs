//! Workspace-local, std-only stand-in for the `loom` model checker:
//! exhaustive exploration of thread interleavings under a preemption
//! bound, over real OS threads serialized by a scheduler gate.
//!
//! Usage mirrors upstream loom: write the concurrent algorithm against
//! `loom::sync`/`loom::thread` types and wrap the scenario in
//! [`model()`]; every schedule the bounded DFS generates is executed, and
//! the first assertion failure or deadlock fails the test with the
//! offending schedule printed.
//!
//! What the checker proves: the modeled algorithm is correct under
//! *every* interleaving with up to `preemption_bound` preemptions
//! (forced switches at blocking points are free). What it does NOT
//! prove: weak-memory effects (the model is sequentially consistent —
//! `Relaxed`-ordering discipline is checked statically by `rrp-lint`),
//! or anything about code paths the model does not exercise.

pub mod model;
pub(crate) mod sched;
pub mod sync;
pub mod thread;

pub use model::{model, Builder};
