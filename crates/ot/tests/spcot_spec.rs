//! The SPCOT batch against its plain spec (`spec/spcot.rs`), and the
//! one-tree transcript `paper fig07` meters.

mod spec {
    pub mod spcot;
}

use ironman_ggm::Arity;
use ironman_ot::channel::ChannelStats;
use ironman_ot::params::FerretParams;
use ironman_ot::spcot::SpcotConfig;
use ironman_prg::{Block, PrgKind};
use spec::spcot::{alphas, assert_batch_is_spec, run_batch};

fn config(arity: Arity, prg: PrgKind, leaves: usize) -> SpcotConfig {
    SpcotConfig {
        arity,
        prg,
        leaves,
        session_key: Block::from(0x5e55_0000u128 + leaves as u128),
    }
}

#[test]
fn batch_is_the_spec_on_every_arity_and_prg() {
    // ℓ = 512 = 2^9 and 8192 = 2^13 end in a narrower level on every
    // arity but 8 at 512 (4-ary: four quad levels and a binary one).
    for arity in Arity::SWEEP {
        for prg in [PrgKind::CHACHA8, PrgKind::Aes] {
            assert_batch_is_spec(&config(arity, prg, 512), 11, &alphas(512, 5));
            assert_batch_is_spec(&config(arity, prg, 8192), 12, &alphas(8192, 3));
        }
    }
}

#[test]
fn batch_is_the_spec_on_the_table4_tree() {
    // `OT_2POW20`'s tree: 4096 leaves, six quad levels, ChaCha8.
    let p = FerretParams::OT_2POW20;
    assert_eq!(p.leaves, 4096);
    let cfg = config(Arity::QUAD, PrgKind::CHACHA8, p.leaves);
    assert_batch_is_spec(&cfg, 13, &alphas(p.leaves, 6));
}

#[test]
fn one_tree_batch_is_the_spec() {
    for arity in Arity::SWEEP {
        assert_batch_is_spec(&config(arity, PrgKind::CHACHA8, 256), 14, &[77]);
    }
}

#[test]
fn quad_chacha_makes_a_sixth_of_binary_aes_calls() {
    // 4-ary ChaCha: (ℓ−1)/3 calls; 2-ary AES: 2(ℓ−1) calls — the 6×
    // reduction of §4 (Fig. 13a).
    let calls = |cfg: SpcotConfig| run_batch(&cfg, 1, &[9]).trees[0].sender_prg.total();
    let quad = calls(SpcotConfig::ironman(4096, Block::from(5u128)));
    let binary = calls(SpcotConfig::ferret_baseline(4096, Block::from(5u128)));
    assert_eq!((binary, quad), (2 * 4095, 4095 / 3));
    assert_eq!(binary / quad, 6);
}

/// One SPCOT at `OT_2POW20`'s 4096 leaves under ChaCha8, keyed, dealt and
/// punctured as `paper fig07` runs it: both parties' PRG calls and
/// channel statistics.
fn one_tree(arity: Arity) -> (u64, u64, ChannelStats, ChannelStats) {
    let cfg = SpcotConfig {
        arity,
        prg: PrgKind::CHACHA8,
        leaves: 4096,
        session_key: Block::from(7u128),
    };
    let run = run_batch(&cfg, arity.get() as u64, &[1234]);
    let tree = &run.trees[0];
    (
        tree.sender_prg.total(),
        tree.receiver_prg.total(),
        run.sender,
        run.receiver,
    )
}

#[test]
fn one_tree_transcript_is_pinned() {
    // (m, sender calls, receiver calls,
    //  sender bytes / messages / rounds, receiver bytes / messages / rounds)
    #[rustfmt::skip]
    let pins = [
        (2, 4095, 4083, [400, 2, 0], [10, 1, 1]),
        (4, 1365, 1359, [784, 2, 0], [10, 1, 1]),
        (8, 1170, 1162, [912, 2, 0], [10, 1, 1]),
        (16, 1092, 1080, [1168, 2, 0], [10, 1, 1]),
        (32, 1288, 1271, [1488, 2, 0], [10, 1, 1]),
    ];
    for (arity, (m, s_calls, r_calls, s_wire, r_wire)) in Arity::SWEEP.into_iter().zip(pins) {
        assert_eq!(arity.get(), m);
        let (s, r, ss, rs) = one_tree(arity);
        let wire = |st: ChannelStats| [st.bytes_sent, st.messages_sent, st.rounds];
        assert_eq!((s, r), (s_calls, r_calls), "m = {m}: PRG calls");
        assert_eq!(wire(ss), s_wire, "m = {m}: sender wire");
        assert_eq!(wire(rs), r_wire, "m = {m}: receiver wire");
    }
}
