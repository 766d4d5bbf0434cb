//! Chosen-message oblivious transfer end to end (Fig. 2 of the paper):
//! extend base correlations into COTs, hash them into random OTs, then
//! obliviously transfer real messages — the receiver learns exactly the
//! chosen message of each pair, the sender learns nothing about the
//! choices.
//!
//! ```sh
//! cargo run --release --example ot_messaging
//! ```

use ironman_core::rot::rot_from_extension;
use ironman_ot::ferret::{run_extension, FerretConfig};
use ironman_ot::params::FerretParams;
use ironman_prg::Block;

fn main() {
    // Pre-processing: one extension's worth of COT correlations.
    let out = run_extension(&FerretConfig::new(FerretParams::toy()), 7);
    out.cots.verify().expect("correlations must hold");
    let (sender, receiver) = rot_from_extension(out.cots.as_slice(), 0);
    println!("pre-processed {} random OTs", sender.len());

    // Online phase: the sender holds message pairs, the receiver wants one
    // of each pair by secret choice.
    let n = 8usize;
    let messages: Vec<(Block, Block)> = (0..n)
        .map(|i| {
            (
                Block::from(0x1000 + i as u128),
                Block::from(0x2000 + i as u128),
            )
        })
        .collect();
    let choices: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();

    // Receiver derandomizes its pre-generated random choices...
    let flips = receiver.derandomize(&choices);
    // ...the sender masks both messages of every pair...
    let masked = sender.mask(&messages, &flips);
    // ...and the receiver unmasks exactly the chosen ones.
    let got = receiver.unmask(&masked, &choices);

    for i in 0..n {
        let want = if choices[i] {
            messages[i].1
        } else {
            messages[i].0
        };
        assert_eq!(got[i], want);
        println!("OT {i}: choice {} -> {:x}", choices[i] as u8, got[i]);
    }
    println!("all {n} transfers delivered the chosen message only");
}
