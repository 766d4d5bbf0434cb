//! The model/framework zoo with the paper's measured baselines.

use std::fmt;

/// Hybrid HE/MPC private-inference frameworks evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Framework {
    /// CrypTFlow2 (Rathee et al., CCS 2020).
    CrypTFlow2,
    /// Cheetah (Huang et al., USENIX Security 2022).
    Cheetah,
    /// Bolt (Pang et al., S&P 2024).
    Bolt,
    /// EzPC-SiRNN (Rathee et al., S&P 2021) — used in Fig. 15.
    EzpcSirnn,
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Framework::CrypTFlow2 => "CrypTFlow2",
            Framework::Cheetah => "Cheetah",
            Framework::Bolt => "Bolt",
            Framework::EzpcSirnn => "EzPC-SiRNN",
        };
        f.write_str(s)
    }
}

/// Network architecture family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Convolutional networks (ReLU nonlinearities).
    Cnn,
    /// Transformers (Softmax/GeLU/LayerNorm nonlinearities).
    Transformer,
}

/// One Table 5 row: a (framework, model) pair with measured baselines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Framework executing the inference.
    pub framework: Framework,
    /// Model name as printed in Table 5.
    pub model: &'static str,
    /// Architecture family.
    pub kind: ModelKind,
    /// Baseline end-to-end latency under (400 Mbps, 20 ms), seconds.
    pub base_wan_s: f64,
    /// Baseline end-to-end latency under (3 Gbps, 0.15 ms), seconds.
    pub base_lan_s: f64,
    /// OT-extension share of execution time (Fig. 1(a); Table 5's LAN
    /// columns pin the per-model value).
    pub ote_fraction: f64,
    /// Paper-reported Ironman latency, WAN (for the side-by-side
    /// `paper tab05` prints).
    pub paper_ours_wan_s: f64,
    /// Paper-reported Ironman latency, LAN.
    pub paper_ours_lan_s: f64,
}

macro_rules! wl {
    ($fw:ident, $name:literal, $kind:ident, $bw:literal, $ow:literal, $bl:literal, $ol:literal, $frac:literal) => {
        Workload {
            framework: Framework::$fw,
            model: $name,
            kind: ModelKind::$kind,
            base_wan_s: $bw,
            base_lan_s: $bl,
            ote_fraction: $frac,
            paper_ours_wan_s: $ow,
            paper_ours_lan_s: $ol,
        }
    };
}

/// All sixteen Table 5 rows. `ote_fraction` is the OT-extension share of
/// execution time for each workload, consistent with Fig. 1(a)'s 51–69%
/// band (slightly below it for the most linear-heavy CNNs).
pub const TABLE5_WORKLOADS: [Workload; 16] = [
    wl!(
        CrypTFlow2,
        "MobileNetV2",
        Cnn,
        46.3,
        29.6,
        32.0,
        16.4,
        0.488
    ),
    wl!(CrypTFlow2, "SqueezeNet", Cnn, 71.0, 38.8, 61.8, 27.7, 0.552),
    wl!(CrypTFlow2, "ResNet18", Cnn, 130.6, 80.1, 113.6, 57.6, 0.493),
    wl!(CrypTFlow2, "ResNet34", Cnn, 287.4, 168.1, 217.0, 100.5, 0.537),
    wl!(CrypTFlow2, "ResNet50", Cnn, 357.4, 223.5, 252.4, 119.7, 0.526),
    wl!(
        CrypTFlow2,
        "DenseNet121",
        Cnn,
        629.0,
        411.0,
        452.5,
        201.3,
        0.555
    ),
    wl!(Cheetah, "MobileNetV2", Cnn, 31.6, 22.4, 12.9, 5.3, 0.589),
    wl!(Cheetah, "SqueezeNet", Cnn, 29.9, 20.5, 15.6, 6.4, 0.590),
    wl!(Cheetah, "ResNet18", Cnn, 39.7, 27.4, 21.3, 9.1, 0.573),
    wl!(Cheetah, "ResNet34", Cnn, 66.1, 45.4, 40.7, 16.3, 0.600),
    wl!(Cheetah, "ResNet50", Cnn, 83.8, 63.3, 48.3, 21.4, 0.557),
    wl!(Cheetah, "DenseNet121", Cnn, 126.9, 96.5, 62.1, 23.3, 0.625),
    wl!(Bolt, "ViT", Transformer, 1026.8, 693.8, 812.2, 272.6, 0.664),
    wl!(
        Bolt,
        "BERT-Base",
        Transformer,
        667.2,
        436.8,
        527.7,
        190.0,
        0.640
    ),
    wl!(
        Bolt,
        "BERT-Large",
        Transformer,
        1543.2,
        923.9,
        1392.8,
        421.6,
        0.697
    ),
    wl!(
        Bolt,
        "GPT2-Large",
        Transformer,
        2538.0,
        1555.2,
        2349.4,
        739.4,
        0.685
    ),
];

/// Additional Fig. 1(a) workloads that have no Table 5 row (the paper's
/// breakdown chart also profiles GPT-2 small and medium on Bolt). Baseline
/// latencies interpolate the Bolt family; only the breakdown is used.
pub const FIG1A_EXTRA: [Workload; 2] = [
    wl!(
        Bolt,
        "GPT2-Small",
        Transformer,
        520.0,
        330.0,
        470.0,
        165.0,
        0.655
    ),
    wl!(
        Bolt,
        "GPT2-Medium",
        Transformer,
        1180.0,
        740.0,
        1080.0,
        370.0,
        0.670
    ),
];

impl Workload {
    /// The paper's reported speedups for this row.
    pub fn paper_speedups(&self) -> (f64, f64) {
        (
            self.base_wan_s / self.paper_ours_wan_s,
            self.base_lan_s / self.paper_ours_lan_s,
        )
    }

    /// Fig. 1(a)-style component breakdown of the LAN baseline: fractions
    /// of (other compute, HE compute, OT extension, online communication).
    /// OTE is the pinned per-model value; the remainder follows the
    /// framework's typical profile.
    pub fn breakdown(&self) -> [f64; 4] {
        let ote = self.ote_fraction;
        let rest = 1.0 - ote;
        let (other_w, he_w, comm_w) = match self.framework {
            Framework::CrypTFlow2 => (0.30, 0.35, 0.35),
            Framework::Cheetah => (0.25, 0.45, 0.30),
            Framework::Bolt | Framework::EzpcSirnn => (0.35, 0.30, 0.35),
        };
        [rest * other_w, rest * he_w, ote, rest * comm_w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_rows() {
        assert_eq!(TABLE5_WORKLOADS.len(), 16);
        let cnn = TABLE5_WORKLOADS
            .iter()
            .filter(|w| w.kind == ModelKind::Cnn)
            .count();
        assert_eq!(cnn, 12);
    }

    #[test]
    fn paper_speedups_match_printed_ranges() {
        for w in &TABLE5_WORKLOADS {
            let (wan, lan) = w.paper_speedups();
            assert!(
                (1.3..=1.9).contains(&wan),
                "{} {}: WAN speedup {wan}",
                w.framework,
                w.model
            );
            assert!(
                (1.9..=3.5).contains(&lan),
                "{} {}: LAN speedup {lan}",
                w.framework,
                w.model
            );
        }
    }

    #[test]
    fn ote_fractions_in_paper_band() {
        for w in &TABLE5_WORKLOADS {
            assert!(
                (0.45..=0.72).contains(&w.ote_fraction),
                "{} {}: fraction {}",
                w.framework,
                w.model,
                w.ote_fraction
            );
        }
    }

    #[test]
    fn breakdown_sums_to_one() {
        for w in &TABLE5_WORKLOADS {
            let sum: f64 = w.breakdown().iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{} {}: {sum}",
                w.framework,
                w.model
            );
        }
    }

    #[test]
    fn transformers_have_higher_ote_share() {
        // §6.5 observation (2): Transformer nonlinearities consume more OT.
        let avg = |kind: ModelKind| {
            let v: Vec<f64> = TABLE5_WORKLOADS
                .iter()
                .filter(|w| w.kind == kind)
                .map(|w| w.ote_fraction)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(ModelKind::Transformer) > avg(ModelKind::Cnn));
    }

    #[test]
    fn wan_baselines_slower_than_lan() {
        for w in &TABLE5_WORKLOADS {
            assert!(w.base_wan_s > w.base_lan_s, "{} {}", w.framework, w.model);
        }
    }
}
