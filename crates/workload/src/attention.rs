//! Attention-block workloads: QKV projections, the logit (`Q·Kᵀ`)
//! matmul and the softmax-weighted value matmul, with
//! sequence-length-dependent dimensions and a KV-cache operand class
//! for decode steps.
//!
//! Every stage is expressed in the 7-dim loop nest as a [`Matmul`]
//! (`B x C . C x K`), so the whole intra-layer machinery — mapping
//! search, lowering, latency/energy/sim — applies unchanged:
//!
//! * projections: `B = seq`, reduction `C = d_model`;
//! * logit `Q·Kᵀ`: query heads folded into `B = heads · seq_q`,
//!   `K = seq_kv` score columns, reduction `C = d_head`; the *weight*
//!   tensor (`K x C = seq_kv x d_head`) **is the K-cache**;
//! * attend `P·V`: `B = heads · seq_q`, `K = d_head` output features,
//!   reduction `C = seq_kv`; the weight tensor is the V-cache.
//!
//! Folding the query heads into `B` models **multi-query attention**
//! (one shared K/V head) exactly — the dominant serving configuration —
//! and is the per-KV-head workload under grouped-query attention. The
//! softmax itself moves no tensor through the memory hierarchy at this
//! abstraction and is modeled as free, like residual adds.
//!
//! [`decode`] marks the logit/attend weight operands as KV-cache
//! resident ([`Layer::with_kv_cache`]): their footprint scales with
//! context length and they are never refilled from the backing store
//! within a decode step.
//!
//! [`Matmul`]: crate::LayerType::Matmul

use crate::{Layer, Operand, Precision};

/// Shape of one attention block: sequence geometry plus head split.
#[derive(Debug, Clone, Copy)]
struct AttentionShape {
    /// Query positions processed this step (`1` for decode).
    seq_q: u64,
    /// Key/value positions attended to (the context length).
    seq_kv: u64,
    /// Model width (`heads * d_head`).
    d_model: u64,
    /// Query heads folded into the batch dimension.
    heads: u64,
}

impl AttentionShape {
    /// Head dimension, `d_model / heads`.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `d_model` and all fields are
    /// non-zero.
    fn d_head(&self) -> u64 {
        assert!(
            self.seq_q > 0 && self.seq_kv > 0 && self.d_model > 0 && self.heads > 0,
            "attention dims must be non-zero"
        );
        assert!(
            self.d_model.is_multiple_of(self.heads),
            "heads ({}) must divide d_model ({})",
            self.heads,
            self.d_model
        );
        self.d_model / self.heads
    }
}

/// The attention block as a layer sequence:
/// `q_proj, k_proj, v_proj, logit, attend, o_proj`.
///
/// When `kv_resident` is set, the logit/attend weight operands (the K-
/// and V-caches) are marked [`Layer::with_kv_cache`].
fn attention_block(s: AttentionShape, kv_resident: bool) -> Vec<Layer> {
    let d_head = s.d_head();
    let p = Precision::int8_acc24();
    let kv = |l: Layer| {
        if kv_resident {
            l.with_kv_cache(Operand::W)
        } else {
            l
        }
    };
    vec![
        // Projections of the new tokens. K/V projections produce one
        // shared head (multi-query attention).
        Layer::matmul("q_proj", s.seq_q, s.d_model, s.d_model, p),
        Layer::matmul("k_proj", s.seq_q, d_head, s.d_model, p),
        Layer::matmul("v_proj", s.seq_q, d_head, s.d_model, p),
        // Q·Kᵀ: scores for every (query head x position) row against the
        // seq_kv cached keys. W = K-cache (seq_kv x d_head).
        kv(Layer::matmul(
            "logit",
            s.heads * s.seq_q,
            s.seq_kv,
            d_head,
            p,
        )),
        // softmax(S)·V: the attention weights (I) against the cached
        // values. W = V-cache (d_head x seq_kv).
        kv(Layer::matmul(
            "attend",
            s.heads * s.seq_q,
            d_head,
            s.seq_kv,
            p,
        )),
        Layer::matmul("o_proj", s.seq_q, s.d_model, s.d_model, p),
    ]
}

/// Prefill: all `seq` positions processed at once (`seq_q = seq_kv =
/// seq`), K/V freshly computed, nothing cache-resident.
pub fn prefill(seq: u64, d_model: u64, heads: u64) -> Vec<Layer> {
    attention_block(
        AttentionShape {
            seq_q: seq,
            seq_kv: seq,
            d_model,
            heads,
        },
        false,
    )
}

/// Decode: one new token (`seq_q = 1`) attending to a `context`-long
/// KV cache; the logit/attend weight operands are KV-cache resident.
pub fn decode(context: u64, d_model: u64, heads: u64) -> Vec<Layer> {
    attention_block(
        AttentionShape {
            seq_q: 1,
            seq_kv: context,
            d_model,
            heads,
        },
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerType;

    #[test]
    fn block_macs_match_the_closed_form() {
        let (seq, d_model, heads) = (16, 64, 4);
        let net = prefill(seq, d_model, heads);
        assert_eq!(net.len(), 6);
        assert!(net.iter().all(|l| l.layer_type() == LayerType::Matmul));
        let macs: u64 = net.iter().map(|l| l.total_macs()).sum();
        let d_head = d_model / heads;
        let proj = 2 * seq * d_model * d_model + 2 * seq * d_head * d_model;
        let scores = 2 * heads * seq * seq * d_head;
        assert_eq!(macs, proj + scores);
    }

    #[test]
    fn logit_weight_is_the_k_cache() {
        let net = decode(512, 64, 4);
        let logit = net.iter().find(|l| l.name() == "logit").unwrap();
        // K-cache footprint scales with context length: seq_kv x d_head.
        assert_eq!(logit.tensor_words(Operand::W), 512 * 16);
        assert!(logit.is_kv_cache(Operand::W));
        assert!(!logit.is_kv_cache(Operand::I));
        let attend = net.iter().find(|l| l.name() == "attend").unwrap();
        assert_eq!(attend.tensor_words(Operand::W), 16 * 512);
        assert!(attend.is_kv_cache(Operand::W));
    }

    #[test]
    fn prefill_streams_everything() {
        assert!(prefill(8, 32, 2).iter().all(|l| !l.has_kv_cache()));
    }

    #[test]
    fn logit_output_feeds_attend_input() {
        for net in [prefill(8, 32, 2), decode(128, 32, 2)] {
            let logit = net.iter().find(|l| l.name() == "logit").unwrap();
            let attend = net.iter().find(|l| l.name() == "attend").unwrap();
            assert_eq!(
                logit.tensor_words(Operand::O),
                attend.tensor_words(Operand::I),
                "the score matrix is the fusable intermediate"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn heads_must_divide_d_model() {
        let _ = prefill(8, 30, 4);
    }
}
