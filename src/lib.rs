//! Workspace facade: re-exports every Ironman crate under one roof.
//!
//! The root package exists so the repository-level `examples/` and
//! `tests/` can depend on the whole workspace with a single manifest; the
//! re-exports below also give downstream users one import surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ironman_core as core;
pub use ironman_ggm as ggm;
pub use ironman_lpn as lpn;
pub use ironman_net as net;
pub use ironman_nmp as nmp;
pub use ironman_ot as ot;
pub use ironman_perf as perf;
pub use ironman_ppml as ppml;
pub use ironman_prg as prg;
