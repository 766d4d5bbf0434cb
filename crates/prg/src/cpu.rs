//! The one CPU decision behind every kernel tier: the features this
//! machine has, detected once per process, and the one read of
//! `IRONMAN_SIMD`.
//!
//! Each kernel with more than one tier — the AES cipher
//! ([`AesTier`](crate::AesTier)), the ChaCha level kernel
//! ([`LevelTier`](crate::LevelTier)) and `ironman-lpn`'s block pass and
//! schedule placement (`SimdLevel`) — derives both of its tier lists from
//! a [`Features`]: `available()`, every tier the CPU runs, from
//! [`detected`]; `detect()`, the tier a process dispatches to, is the
//! widest one [`enabled`] allows. Every `unsafe` entry point checks its
//! features in [`detected`] before it calls a `#[target_feature]`
//! function, so asking for a tier the CPU lacks is safe.
//!
//! `IRONMAN_SIMD=scalar` (in any case), `off` or `0` empties [`enabled`]:
//! every kernel then runs its portable tier, while the equivalence tests
//! that iterate `available()` still cover each vector tier the CPU has.
//! Off x86-64 nothing is detected and the portable tiers are the only
//! ones.

use std::sync::OnceLock;

/// The x86-64 features the kernels dispatch on; all `false` elsewhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Features {
    /// `AESENC`: the AES hardware tier.
    pub aes: bool,
    /// 256-bit integer vectors: the AVX2 level kernel and, with `bmi2`,
    /// the LPN wide tier.
    pub avx2: bool,
    /// `SHRX` / `PEXT`: the LPN wide tier.
    pub bmi2: bool,
    /// 512-bit vectors: the AVX-512 level kernel, the VAES tier (with
    /// `vaes`) and the AVX-512 schedule placement (with `popcnt`).
    pub avx512f: bool,
    /// `VAESENC` over 512-bit vectors: the VAES tier.
    pub vaes: bool,
    /// `POPCNT`: the AVX-512 schedule placement's per-tile counts.
    pub popcnt: bool,
}

/// What this CPU has, whatever the environment says. Detected once per
/// process.
pub fn detected() -> Features {
    static DETECTED: OnceLock<Features> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            Features {
                aes: has!("aes"),
                avx2: has!("avx2"),
                bmi2: has!("bmi2"),
                avx512f: has!("avx512f"),
                vaes: has!("vaes"),
                popcnt: has!("popcnt"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Features::default()
        }
    })
}

/// The features the kernels dispatch on: [`detected`], or none at all
/// when `IRONMAN_SIMD` forces the portable tiers. Decided once per
/// process.
pub fn enabled() -> Features {
    static ENABLED: OnceLock<Features> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if forces_scalar(std::env::var("IRONMAN_SIMD").ok().as_deref()) {
            Features::default()
        } else {
            detected()
        }
    })
}

/// Whether `value` (unset: `None`) of `IRONMAN_SIMD` pins every kernel to
/// its portable tier: `scalar` in any case, `off` or `0`.
fn forces_scalar(value: Option<&str>) -> bool {
    matches!(value, Some(v) if v.eq_ignore_ascii_case("scalar") || v == "off" || v == "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_scalar_spellings_force_the_portable_tiers() {
        for value in ["scalar", "SCALAR", "Scalar", "off", "0"] {
            assert!(forces_scalar(Some(value)), "{value:?}");
        }
        for value in [None, Some(""), Some("avx2"), Some("1"), Some("OFF")] {
            assert!(!forces_scalar(value), "{value:?}");
        }
    }
}
