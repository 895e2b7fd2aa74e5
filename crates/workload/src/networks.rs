//! Built-in workloads: the hand-tracking network used for validation and
//! the synthetic layer sweeps of the case studies.
//!
//! The paper validates against "NN layers (with different parameter sizes)
//! of a hand-tracking workload" — the cited reference is an SSD detector on
//! a MobileNet-V1 backbone. The exact per-layer list was not published, so
//! [`handtracking`] reconstructs the standard SSD-MobileNetV1 layer shapes
//! (300x300 input, width multiplier 1.0); this substitution is documented
//! in `DESIGN.md` §4.

use crate::im2col::Im2ColError;
use crate::{im2col, Layer, LayerShape, LayerType, Precision};

/// The preset names [`by_name`] accepts, in the order front ends list them.
pub const NAMES: [&str; 6] = [
    "handtracking",
    "attention-prefill",
    "attention-decode",
    "mobilenet",
    "resnet18",
    "alexnet",
];

/// The network preset called `name` (one of [`NAMES`]) as a GEMM array
/// runs it, or `None`. The hand-tracking and attention presets are matmul
/// layers already; every layer of the others is Im2Col-lowered, which
/// fails on depthwise layers, so each layer comes with its own result.
pub fn by_name(name: &str) -> Option<Vec<Result<Layer, Im2ColError>>> {
    let (raw, matmuls) = match name {
        "handtracking" => (handtracking_validation_layers(), true),
        "attention-prefill" => (attention_prefill(), true),
        "attention-decode" => (attention_decode(), true),
        "mobilenet" => (mobilenet_v1(224, 1), false),
        "resnet18" => (resnet18(224, 1), false),
        "alexnet" => (alexnet(1), false),
        _ => return None,
    };
    Some(if matmuls {
        raw.into_iter().map(Ok).collect()
    } else {
        raw.iter().map(im2col).collect()
    })
}

/// Standard MobileNet-V1 backbone (width multiplier 1.0) for an
/// `input x input` image, as conv / depthwise / pointwise layers.
///
/// # Example
///
/// ```
/// use ulm_workload::networks::mobilenet_v1;
/// let net = mobilenet_v1(224, 1);
/// assert_eq!(net.len(), 1 + 13 * 2);
/// ```
pub fn mobilenet_v1(input: u64, batch: u64) -> Vec<Layer> {
    let p = Precision::int8_acc24();
    let mut layers = Vec::new();
    let mut side = input / 2; // conv1 is stride 2
    layers.push(Layer::conv2d(
        "conv1",
        LayerShape::conv(batch, 32, 3, side, side, 3, 3).with_stride(2, 2),
        p,
    ));
    // (in_ch, out_ch, stride) per depthwise-separable block.
    let blocks: [(u64, u64, u64); 13] = [
        (32, 64, 1),
        (64, 128, 2),
        (128, 128, 1),
        (128, 256, 2),
        (256, 256, 1),
        (256, 512, 2),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 1024, 2),
        (1024, 1024, 1),
    ];
    for (i, &(cin, cout, stride)) in blocks.iter().enumerate() {
        if stride == 2 {
            side = side.div_ceil(2);
        }
        layers.push(Layer::new(
            format!("dw{}", i + 1),
            LayerType::DepthwiseConv2d,
            LayerShape::conv(batch, cin, 1, side, side, 3, 3).with_stride(stride, stride),
            p,
        ));
        layers.push(Layer::new(
            format!("pw{}", i + 1),
            LayerType::PointwiseConv2d,
            LayerShape::conv(batch, cout, cin, side, side, 1, 1),
            p,
        ));
    }
    layers
}

/// The hand-tracking workload: SSD-MobileNetV1 shapes at 300x300 input —
/// backbone plus the SSD extra feature layers and detection heads.
pub fn handtracking() -> Vec<Layer> {
    let p = Precision::int8_acc24();
    let mut layers = mobilenet_v1(300, 1);
    // SSD extra feature layers (standard ssd-mobilenet topology).
    let extras: [(&str, u64, u64, u64, u64, u64); 8] = [
        // (name, k, c, side_out, filter, stride)
        ("ssd_e1a", 256, 1024, 10, 1, 1),
        ("ssd_e1b", 512, 256, 5, 3, 2),
        ("ssd_e2a", 128, 512, 5, 1, 1),
        ("ssd_e2b", 256, 128, 3, 3, 2),
        ("ssd_e3a", 128, 256, 3, 1, 1),
        ("ssd_e3b", 256, 128, 2, 3, 2),
        ("ssd_e4a", 64, 256, 2, 1, 1),
        ("ssd_e4b", 128, 64, 1, 3, 2),
    ];
    for (name, k, c, side, f, s) in extras {
        layers.push(Layer::conv2d(
            name,
            LayerShape::conv(1, k, c, side, side, f, f).with_stride(s, s),
            p,
        ));
    }
    // Detection heads on two largest feature maps (classes + boxes).
    layers.push(Layer::conv2d(
        "head_cls19",
        LayerShape::conv(1, 18, 512, 19, 19, 3, 3),
        p,
    ));
    layers.push(Layer::conv2d(
        "head_box19",
        LayerShape::conv(1, 12, 512, 19, 19, 3, 3),
        p,
    ));
    layers.push(Layer::conv2d(
        "head_cls10",
        LayerShape::conv(1, 36, 1024, 10, 10, 3, 3),
        p,
    ));
    layers.push(Layer::conv2d(
        "head_box10",
        LayerShape::conv(1, 24, 1024, 10, 10, 3, 3),
        p,
    ));
    layers
}

/// A compact, size-diverse subset of [`handtracking`] layers, Im2Col
/// lowered like the validation chip's RISC-V pre-processing (depthwise
/// layers, which the chip's GEMM array does not run natively, excluded).
///
/// Used by the Fig. 5(c) validation experiment: model vs cycle-level
/// simulation on "NN layers of different sizes".
pub fn handtracking_validation_layers() -> Vec<Layer> {
    let picks = [
        "conv1",
        "pw1",
        "pw2",
        "pw4",
        "pw6",
        "pw8",
        "pw11",
        "pw12",
        "pw13",
        "ssd_e1a",
        "ssd_e1b",
        "ssd_e3b",
        "head_cls19",
        "head_cls10",
    ];
    handtracking()
        .iter()
        .filter(|l| picks.contains(&l.name()))
        .map(|l| im2col(l).expect("validation subset excludes depthwise layers"))
        .collect()
}

/// ResNet-18 convolutional layers for an `input x input` image (standard
/// topology; the final dense classifier included, residual adds are free
/// at this abstraction).
pub fn resnet18(input: u64, batch: u64) -> Vec<Layer> {
    let p = Precision::int8_acc24();
    let mut layers = Vec::new();
    let mut side = input / 4; // conv1 stride 2 + maxpool stride 2
    layers.push(Layer::conv2d(
        "conv1",
        LayerShape::conv(batch, 64, 3, input / 2, input / 2, 7, 7).with_stride(2, 2),
        p,
    ));
    // Four stages of two basic blocks each: (channels, downsample?).
    let stages: [(u64, bool); 4] = [(64, false), (128, true), (256, true), (512, true)];
    let mut cin = 64u64;
    for (si, &(ch, down)) in stages.iter().enumerate() {
        for bi in 0..2u64 {
            let stride = if down && bi == 0 { 2 } else { 1 };
            if stride == 2 {
                side = side.div_ceil(2);
            }
            layers.push(Layer::conv2d(
                format!("s{}b{}c1", si + 1, bi + 1),
                LayerShape::conv(batch, ch, cin, side, side, 3, 3).with_stride(stride, stride),
                p,
            ));
            layers.push(Layer::conv2d(
                format!("s{}b{}c2", si + 1, bi + 1),
                LayerShape::conv(batch, ch, ch, side, side, 3, 3),
                p,
            ));
            if cin != ch {
                layers.push(Layer::new(
                    format!("s{}b{}ds", si + 1, bi + 1),
                    LayerType::PointwiseConv2d,
                    LayerShape::conv(batch, ch, cin, side, side, 1, 1),
                    p,
                ));
            }
            cin = ch;
        }
    }
    layers.push(Layer::dense("fc", batch, 1000, 512, p));
    layers
}

/// AlexNet's five convolutions and three dense layers (227x227 input).
pub fn alexnet(batch: u64) -> Vec<Layer> {
    let p = Precision::int8_acc24();
    vec![
        Layer::conv2d(
            "conv1",
            LayerShape::conv(batch, 96, 3, 55, 55, 11, 11).with_stride(4, 4),
            p,
        ),
        Layer::conv2d("conv2", LayerShape::conv(batch, 256, 96, 27, 27, 5, 5), p),
        Layer::conv2d("conv3", LayerShape::conv(batch, 384, 256, 13, 13, 3, 3), p),
        Layer::conv2d("conv4", LayerShape::conv(batch, 384, 384, 13, 13, 3, 3), p),
        Layer::conv2d("conv5", LayerShape::conv(batch, 256, 384, 13, 13, 3, 3), p),
        Layer::dense("fc6", batch, 4096, 9216, p),
        Layer::dense("fc7", batch, 4096, 4096, p),
        Layer::dense("fc8", batch, 1000, 4096, p),
    ]
}

/// Attention prefill preset: one transformer attention block processing
/// a 128-token prompt at `d_model = 256`, 4 query heads (see
/// [`crate::attention::prefill`]). Everything streams from the backing
/// store; nothing is cache-resident.
pub fn attention_prefill() -> Vec<Layer> {
    crate::attention::prefill(128, 256, 4)
}

/// Attention decode preset: one new token attending to a 512-token KV
/// cache at `d_model = 256`, 4 query heads (see
/// [`crate::attention::decode`]). The logit/attend weight operands —
/// the K- and V-caches — are KV-cache resident.
pub fn attention_decode() -> Vec<Layer> {
    crate::attention::decode(512, 256, 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dim, Operand};

    #[test]
    fn every_listed_name_resolves_and_only_those() {
        for name in NAMES {
            let layers = by_name(name).unwrap_or_else(|| panic!("{name} does not resolve"));
            assert!(layers.iter().any(Result::is_ok), "{name}");
        }
        assert!(by_name("Mobilenet").is_none());
        // Depthwise layers fail Im2Col one by one; the rest lower.
        let mobilenet = by_name("mobilenet").unwrap();
        assert_eq!(mobilenet.iter().filter(|l| l.is_err()).count(), 13);
        // Matmul presets come back as built, KV-cache flags included.
        let decode: Vec<Layer> = by_name("attention-decode")
            .unwrap()
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(decode, attention_decode());
    }

    #[test]
    fn mobilenet_layer_count_and_shapes() {
        let net = mobilenet_v1(224, 1);
        assert_eq!(net.len(), 27);
        // conv1: 224 -> 112 at stride 2.
        assert_eq!(net[0].shape().dim(Dim::OX), 112);
        // Last pointwise has 1024 outputs on a 7x7 map.
        let last = net.last().unwrap();
        assert_eq!(last.shape().dim(Dim::K), 1024);
        assert_eq!(last.shape().dim(Dim::OX), 7);
    }

    #[test]
    fn mobilenet_channel_chaining_is_consistent() {
        let net = mobilenet_v1(224, 1);
        // Each pointwise consumes the channel count its depthwise produced.
        for pair in net[1..].chunks(2) {
            let (dw, pw) = (&pair[0], &pair[1]);
            assert_eq!(dw.layer_type(), LayerType::DepthwiseConv2d);
            assert_eq!(pw.layer_type(), LayerType::PointwiseConv2d);
            assert_eq!(dw.shape().dim(Dim::K), pw.shape().dim(Dim::C));
            assert_eq!(dw.shape().dim(Dim::OX), pw.shape().dim(Dim::OX));
        }
    }

    #[test]
    fn handtracking_includes_ssd_heads() {
        let net = handtracking();
        assert!(net.iter().any(|l| l.name() == "head_cls10"));
        assert!(net.len() > 30);
    }

    #[test]
    fn validation_layers_are_matmuls_of_diverse_size() {
        let layers = handtracking_validation_layers();
        assert!(layers.len() >= 10, "got {}", layers.len());
        assert!(layers.iter().all(|l| l.layer_type() == LayerType::Matmul));
        let macs: Vec<u64> = layers.iter().map(|l| l.total_macs()).collect();
        let min = macs.iter().min().unwrap();
        let max = macs.iter().max().unwrap();
        assert!(
            max / min.max(&1) > 20,
            "sizes should span >20x: min {min}, max {max}"
        );
    }

    #[test]
    fn resnet18_structure() {
        let net = resnet18(224, 1);
        // conv1 + 16 block convs + 3 downsample pointwise + fc.
        assert_eq!(net.len(), 1 + 16 + 3 + 1);
        assert_eq!(net[0].shape().dim(Dim::OX), 112);
        let fc = net.last().unwrap();
        assert_eq!(fc.layer_type(), LayerType::Dense);
        assert_eq!(fc.shape().dim(Dim::K), 1000);
        // Downsample layers appear exactly at stage transitions.
        let ds: Vec<&str> = net
            .iter()
            .filter(|l| l.name().ends_with("ds"))
            .map(|l| l.name())
            .collect();
        assert_eq!(ds, vec!["s2b1ds", "s3b1ds", "s4b1ds"]);
    }

    #[test]
    fn alexnet_mac_count_is_in_the_ballpark() {
        let net = alexnet(1);
        assert_eq!(net.len(), 8);
        let macs: u64 = net.iter().map(|l| l.total_macs()).sum();
        // ~1.1 GMACs for batch 1 (the original's grouped convs modeled
        // dense, as every modern reimplementation does).
        assert!((900_000_000..1_300_000_000).contains(&macs), "{macs}");
    }

    #[test]
    fn attention_presets_have_expected_structure() {
        let pre = attention_prefill();
        assert_eq!(pre.len(), 6);
        assert!(pre.iter().all(|l| !l.has_kv_cache()));
        let dec = attention_decode();
        assert_eq!(dec.len(), 6);
        // Decode marks exactly the logit/attend weights (the KV cache).
        let cached: Vec<&str> = dec
            .iter()
            .filter(|l| l.is_kv_cache(Operand::W))
            .map(|l| l.name())
            .collect();
        assert_eq!(cached, vec!["logit", "attend"]);
        // Decode's query side is a single token.
        assert_eq!(dec[0].shape().dim(Dim::B), 1);
    }
}
