//! Performance and cost models for the Ironman reproduction.
//!
//! Everything here is *analytical*: closed-form models whose constants come
//! either from the paper itself (Tables 2, 3, 6; §6.1's GPU measurements)
//! or from first-principles DDR4/AES-NI arithmetic, calibrated so the CPU
//! baseline reproduces the paper's full-thread Ferret performance. Each
//! constant's source is stated where it is defined; README.md's
//! substitution table says what is modelled rather than measured.
//!
//! * [`roofline`] — the roofline model of Fig. 1(c).
//! * [`area_power`] — PRG core and Ironman-NMP area/power (Tables 2 & 6).
//! * [`cpu`] — the 24-core Xeon baseline (Fig. 1(b), Fig. 12's "CPU" bar).
//! * [`gpu`] — the A6000 baseline (Fig. 12's "GPU" bar).
//! * [`network`] — bandwidth/RTT link model (Fig. 7(c), Table 5's two
//!   network settings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area_power;
pub mod cpu;
pub mod energy;
pub mod gpu;
pub mod network;
pub mod roofline;

pub use cpu::{CpuModel, OteWorkload, PhaseLatency};
pub use gpu::GpuModel;
pub use network::NetworkModel;
pub use roofline::Roofline;
