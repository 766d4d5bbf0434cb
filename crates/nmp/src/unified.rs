//! The unified unit's two modes (paper §5.2, Fig. 10).
//!
//! During SPCOT the sender must compute the even/odd (or per-branch) XOR
//! sums of each GGM level (**Key Generator** mode), while the receiver
//! must fold a received sum with its reconstructed nodes to recover the
//! missing sibling (**Message Decoder** mode). Both are XOR reductions, so
//! Ironman shares one XOR tree between them. The model charges only the
//! tree's cycles ([`crate::dimm::simulate_dimm`]); the XOR algebra itself
//! is [`ironman_ggm::GgmTree::level_sums`].

use serde::{Deserialize, Serialize};

/// Which protocol role the unit is serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Key Generator: compute per-branch level sums for the OT messages.
    Sender,
    /// Message Decoder: recover the punctured parent's sibling from a
    /// received sum and locally known nodes.
    Receiver,
}
