//! PG19-style language-modelling perplexity proxy (Fig. 10).
//!
//! The paper measures perplexity on PG19 with input lengths from 1 to 32 000
//! tokens and a 1024-token budget: Full KV sits around 10–11, ClusterKV
//! tracks it within ~0.5, InfiniGen deviates by ~2 and Quest by ~4. Without
//! the dataset or model, perplexity is modelled as a monotone function of how
//! much of the truly important attention mass the method fails to recall on a
//! synthetic episode of the same length: `ppl = base · exp(k · (1 − recall))`.
//! Full attention (recall 1) reproduces the base perplexity; methods that
//! miss more of the important tokens are pushed exponentially higher, which
//! preserves the ordering and the deviation structure of Fig. 10. A run over
//! a compressing cache additionally pays for its mean reconstruction error
//! (DESIGN.md §9); a lossless run has none, so the two cases share one
//! anchor.

use crate::harness::EpisodeResult;
/// Base perplexity of the (synthetic) language model with full attention,
/// chosen to match the level of Fig. 10.
pub const BASE_PERPLEXITY: f64 = 10.2;

/// Sensitivity of the proxy to missed important tokens.
pub const ERROR_SENSITIVITY: f64 = 1.0;

/// Weight of the mean reconstruction error in [`perplexity_proxy`].
/// Selection misses (recall) and reconstruction error (quantization /
/// merging) degrade generation quality through the same attention outputs,
/// but a bounded relative output error perturbs logits less than dropping a
/// top-`B` token outright, so it enters at half the recall sensitivity.
pub const OUTPUT_ERROR_SENSITIVITY: f64 = 0.5;

/// Convert a measured episode result into a proxy perplexity:
/// `base · exp(k · (1 − recall) + k_out · recon)`, where `recon` is the
/// run's mean reconstruction error (zero for a lossless run).
///
/// # Examples
///
/// ```
/// use clusterkv_workloads::harness::EpisodeResult;
/// use clusterkv_workloads::language_modeling::{perplexity_proxy, BASE_PERPLEXITY};
///
/// let perfect = EpisodeResult {
///     method: "Full KV".into(),
///     budget: 1024,
///     per_step_recall: vec![1.0],
///     per_step_error: vec![0.0],
///     per_step_selected: vec![1024],
///     ..Default::default()
/// };
/// assert!((perplexity_proxy(&perfect) - BASE_PERPLEXITY).abs() < 1e-9);
/// ```
pub fn perplexity_proxy(result: &EpisodeResult) -> f64 {
    let missed = (1.0 - result.mean_recall()).clamp(0.0, 1.0);
    let recon = result.mean_reconstruction_error().clamp(0.0, 1.0);
    BASE_PERPLEXITY * (ERROR_SENSITIVITY * missed + OUTPUT_ERROR_SENSITIVITY * recon).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(recall: f64) -> EpisodeResult {
        EpisodeResult {
            method: "m".into(),
            budget: 1024,
            per_step_recall: vec![recall; 3],
            per_step_error: vec![0.1; 3],
            per_step_selected: vec![1024; 3],
            ..Default::default()
        }
    }

    #[test]
    fn perfect_recall_gives_base_perplexity() {
        assert!((perplexity_proxy(&result(1.0)) - BASE_PERPLEXITY).abs() < 1e-9);
    }

    #[test]
    fn perplexity_is_monotone_in_missed_recall() {
        assert!(perplexity_proxy(&result(0.9)) < perplexity_proxy(&result(0.7)));
        assert!(perplexity_proxy(&result(0.7)) < perplexity_proxy(&result(0.4)));
    }

    #[test]
    fn near_perfect_recall_stays_close_to_full_kv() {
        // A deviation like ClusterKV's (≤ 0.5 perplexity in the paper)
        // corresponds to recalling nearly all important tokens.
        let ppl = perplexity_proxy(&result(0.96));
        assert!(ppl - BASE_PERPLEXITY < 0.6, "ppl {ppl}");
    }

    #[test]
    fn missed_recall_is_clamped() {
        assert!(
            perplexity_proxy(&result(-3.0)) <= BASE_PERPLEXITY * ERROR_SENSITIVITY.exp() + 1e-9
        );
    }

    #[test]
    fn reconstruction_error_is_charged_gently_and_anchored() {
        let with_recon = |recall: f64, recon: f64| EpisodeResult {
            per_step_reconstruction_error: vec![recon; 3],
            ..result(recall)
        };
        let exact = perplexity_proxy(&with_recon(1.0, 0.0));
        assert!((exact - BASE_PERPLEXITY).abs() < 1e-12);
        // Zero reconstruction error reduces bit-exactly to the recall-only
        // proxy.
        let r = with_recon(0.7, 0.0);
        assert_eq!(
            perplexity_proxy(&r),
            BASE_PERPLEXITY * (ERROR_SENSITIVITY * (1.0 - r.mean_recall())).exp()
        );
        assert!(perplexity_proxy(&with_recon(1.0, 0.1)) > exact);
        assert!(perplexity_proxy(&with_recon(0.9, 0.1)) > perplexity_proxy(&with_recon(0.9, 0.0)));
        // The reconstruction channel is gentler than the recall channel.
        assert!(perplexity_proxy(&with_recon(0.8, 0.0)) > perplexity_proxy(&with_recon(1.0, 0.2)));
    }
}
