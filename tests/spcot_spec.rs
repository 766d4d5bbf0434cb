//! Tier 1 reaches the SPCOT spec: a few trees of the production batch
//! equal the plain spec `ironman-ot`'s tests sweep in full.

#[path = "../crates/ot/tests/spec/spcot.rs"]
mod spec;

use ironman_ggm::Arity;
use ironman_ot::spcot::SpcotConfig;
use ironman_prg::{Block, PrgKind};

#[test]
fn spcot_batch_is_the_plain_spec() {
    // Quad ChaCha8 at ℓ = 512: four quad levels and a binary one.
    let quad = SpcotConfig::ironman(512, Block::from(21u128));
    assert_eq!(Arity::QUAD.level_fanouts(quad.leaves), [4, 4, 4, 4, 2]);
    assert_eq!(quad.prg, PrgKind::CHACHA8);
    spec::assert_batch_is_spec(&quad, 21, &spec::alphas(quad.leaves, 4));
    // Binary AES, the CPU baseline.
    let binary = SpcotConfig::ferret_baseline(256, Block::from(22u128));
    spec::assert_batch_is_spec(&binary, 22, &spec::alphas(binary.leaves, 4));
}
