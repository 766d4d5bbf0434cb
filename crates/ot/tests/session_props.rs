//! Session-level properties of the extension path: a [`CotSession`]
//! running the tiled kernel still satisfies the Δ-correlation invariant
//! on every staged batch, and its output stream is bit-identical to the
//! naive-kernel session with the same seed; and the bit-0 convention —
//! `Δ` odd, sender strings even, the receiver's choice bit in bit 0 of
//! its string — holds across chained extensions whichever kernel each
//! party runs. (Each party's SIMD tier is the CPU's; `ferret`'s unit
//! tests run every tier through a test hook.)

use ironman_ggm::Arity;
use ironman_ot::channel::run_protocol;
use ironman_ot::cot::CotBatch;
use ironman_ot::dealer::Dealer;
use ironman_ot::ferret::{run_extensions, FerretConfig, FerretReceiver, FerretSender, LpnKernel};
use ironman_ot::params::FerretParams;
use ironman_ot::session::CotSession;
use proptest::prelude::*;

const KERNELS: [LpnKernel; 3] = [LpnKernel::Naive, LpnKernel::Tiled, LpnKernel::Split];
const CHAINED: usize = 4;

/// [`run_extensions`] with a config per party (the kernel is a local
/// choice): same dealer draws, same party seeds.
fn run_mixed(sender_cfg: FerretConfig, receiver_cfg: FerretConfig, seed: u64) -> Vec<CotBatch> {
    let mut dealer = Dealer::new(seed);
    let delta = dealer.random_delta();
    let (s_base, r_base) = dealer.deal_cot(delta, sender_cfg.base_cots_required());
    let (zs, xys, _, _) = run_protocol(
        move |ch| {
            let mut sender = FerretSender::new(sender_cfg, s_base, seed);
            (0..CHAINED)
                .map(|_| sender.extend(ch).expect("sender"))
                .collect::<Vec<_>>()
        },
        move |ch| {
            let mut receiver = FerretReceiver::new(receiver_cfg, r_base, seed);
            (0..CHAINED)
                .map(|_| receiver.extend(ch).expect("receiver"))
                .collect::<Vec<_>>()
        },
    );
    zs.into_iter()
        .zip(xys)
        .map(|(z, (x, y))| CotBatch { delta, z, x, y })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeds × {toy, toy_large} × every arity × each party's own kernel,
    /// four chained extensions: every output verifies, `Δ` is odd, every
    /// `z` is even, `x` is bit 0 of `y` — and the whole `(z, x, y)` stream
    /// is the naive session's, bit for bit, so mixed-kernel parties
    /// interoperate.
    #[test]
    fn bit0_convention_holds_across_kernels_and_bootstraps(
        seed in any::<u64>(),
        large in any::<bool>(),
        arity in 0..Arity::SWEEP.len(),
        sender_kernel in 0..KERNELS.len(),
        receiver_kernel in 0..KERNELS.len(),
    ) {
        let params = if large { FerretParams::toy_large() } else { FerretParams::toy() };
        let base_cfg = FerretConfig {
            arity: Arity::SWEEP[arity],
            ..FerretConfig::new(params)
        };
        let party = |kernel: usize| FerretConfig {
            kernel: KERNELS[kernel],
            ..base_cfg.clone()
        };
        let outs = run_mixed(party(sender_kernel), party(receiver_kernel), seed);
        let reference = run_extensions(&base_cfg, seed, CHAINED);
        for (i, (out, want)) in outs.iter().zip(&reference).enumerate() {
            prop_assert_eq!(out.len(), base_cfg.usable_outputs(), "extension {}", i);
            prop_assert_eq!(out.verify(), Ok(()), "extension {}", i);
            prop_assert!(out.delta.lsb(), "delta must be odd");
            for j in 0..out.len() {
                prop_assert!(!out.z[j].lsb(), "extension {} z[{}]", i, j);
                prop_assert_eq!(out.x[j], out.y[j].lsb(), "extension {} x[{}]", i, j);
            }
            prop_assert_eq!(out, &want.cots, "extension {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random session seeds: the tiled session's staged batches all
    /// verify `z = y ⊕ x·Δ`, and match the naive-kernel session bit for
    /// bit (the kernels only reorder XOR accumulation).
    #[test]
    fn tiled_session_correlates_and_matches_naive(seed in any::<u64>()) {
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        let tiled_cfg = FerretConfig {
            kernel: LpnKernel::Tiled,
            ..naive_cfg.clone()
        };
        let naive = CotSession::spawn(&naive_cfg, seed, 1);
        let tiled = CotSession::spawn(&tiled_cfg, seed, 1);
        for _ in 0..2 {
            let a = naive.recv().expect("naive session alive");
            let b = tiled.recv().expect("tiled session alive");
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(b.verify(), Ok(()));
        }
    }
}
