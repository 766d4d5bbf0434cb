//! PPML application-level workload models for the Ironman reproduction.
//!
//! The paper's end-to-end evaluation (§6.4–6.5) measures hybrid HE/MPC
//! private-inference frameworks — CrypTFlow2, Cheetah, Bolt, EzPC-SiRNN —
//! on CNN and Transformer models, with Ironman replacing the CPU's OT
//! extension. This crate models that composition:
//!
//! * [`zoo`] — the model/framework zoo with the paper's measured baseline
//!   latencies (Table 5's "Base La." columns) and each workload's
//!   OT-extension share of execution time (Fig. 1(a)).
//! * [`e2e`] — the end-to-end latency composition: everything except the
//!   OT-extension phase is unchanged; the OTE phase shrinks by the
//!   backend's speedup, floored by its communication on the link.
//! * [`nonlinear`] — Fig. 15's per-operator study (LayerNorm, GeLU,
//!   Softmax, ReLU) on EzPC-SiRNN and Bolt.
//! * [`matmul`] — Fig. 16's OT-based matrix-multiplication communication
//!   with and without the unified (role-switching) architecture.
//!
//! Everything here is an *analytical composition* of paper-reported
//! baselines with speedups measured from this workspace's simulators
//! (README.md's substitution table); each constant's source is stated
//! where it is defined.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e2e;
pub mod matmul;
pub mod nonlinear;
pub mod zoo;

pub use e2e::{reproduce_table5, E2eRow, SpeedupAssumptions};
pub use zoo::{Framework, ModelKind, Workload, TABLE5_WORKLOADS};
