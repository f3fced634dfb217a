//! Attention computation over a (possibly compressed) KV cache.
//!
//! All paths route through the blocked kernels of
//! [`clusterkv_tensor::kernels`] (DESIGN.md §6): logits are one blocked
//! (gather-)matvec over the key matrix, the output one blocked weighted sum
//! over the value matrix — no gathered row copies, no index vectors for the
//! full-attention case, and with the `*_ws` variants no allocation at all
//! once the caller's [`Workspace`] is warm. The per-row arithmetic is
//! canonical, so [`attend_full`] is bit-identical to [`attend_selected`]
//! over all indices. The pre-kernel scalar pipeline survives as
//! [`attend_selected_reference`] for property tests and benches.

use clusterkv_kvcache::compressed::{compress_page, CompressionConfig};
use clusterkv_kvcache::types::Bytes;
use clusterkv_kvcache::KvStore;
use clusterkv_tensor::kernels::{attend_into, attention_weights_into, Workspace};
use clusterkv_tensor::ops::{attention_weights, weighted_sum};
use clusterkv_tensor::Matrix;
use std::collections::BTreeMap;

/// Output of a single-head attention step.
///
/// The token indices the weights refer to are the `indices` the caller
/// passed to [`attend_selected`] (or `0..store.len()` for [`attend_full`]);
/// they are no longer cloned into the output — the caller already owns them.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// The attention output vector (`softmax(qK_Sᵀ/√d) · V_S`).
    pub output: Vec<f32>,
    /// Attention weights over the *selected* tokens, aligned with the
    /// caller's index order.
    pub weights: Vec<f32>,
}

/// Compute single-head attention of `query` over the tokens at `indices`
/// within `store`, reusing the caller's workspace: weights land in
/// `ws.weights`, the output in `ws.out`. This is the serving engine's
/// per-head decode path — allocation-free once the workspace is warm.
///
/// # Panics
///
/// Panics if `query.len() != store.head_dim()` or an index is out of bounds.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn attend_selected_ws(store: &KvStore, query: &[f32], indices: &[usize], ws: &mut Workspace) {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    ws.out.clear();
    ws.out.resize(store.head_dim(), 0.0);
    attend_into(
        store.keys(),
        store.values(),
        Some(indices),
        query,
        &mut ws.weights,
        &mut ws.out,
    );
}

/// Compute single-head attention of `query` over the tokens at `indices`
/// within `store`.
///
/// This is the approximated attention `softmax(q·K_Sᵀ/√d)·V_S` of the paper
/// (§II-B). Passing all indices yields exact full attention.
///
/// # Panics
///
/// Panics if `query.len() != store.head_dim()` or an index is out of bounds.
pub fn attend_selected(store: &KvStore, query: &[f32], indices: &[usize]) -> AttentionOutput {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    let mut weights = Vec::with_capacity(indices.len());
    let mut output = vec![0.0f32; store.head_dim()];
    attend_into(
        store.keys(),
        store.values(),
        Some(indices),
        query,
        &mut weights,
        &mut output,
    );
    AttentionOutput { output, weights }
}

/// Compute exact full attention over every token in the store, without
/// materializing a `0..len` index vector: the kernels walk the key/value
/// matrices contiguously. Bit-identical to [`attend_selected`] over
/// `[0, 1, …, len-1]`.
pub fn attend_full(store: &KvStore, query: &[f32]) -> AttentionOutput {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    let mut weights = Vec::with_capacity(store.len());
    let mut output = vec![0.0f32; store.head_dim()];
    attend_into(
        store.keys(),
        store.values(),
        None,
        query,
        &mut weights,
        &mut output,
    );
    AttentionOutput { output, weights }
}

/// Exact attention weights of `query` over *all* tokens in the store into
/// `ws.weights` (without computing the output, without an index vector and
/// without allocating once warm). Used by importance traces and recall
/// metrics, where only the weights matter.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn full_attention_weights_ws(store: &KvStore, query: &[f32], ws: &mut Workspace) {
    attention_weights_into(store.keys(), None, query, &mut ws.weights);
}

/// Exact attention weights of `query` over *all* tokens in the store
/// (allocating variant of [`full_attention_weights_ws`]).
pub fn full_attention_weights(store: &KvStore, query: &[f32]) -> Vec<f32> {
    let mut weights = Vec::with_capacity(store.len());
    attention_weights_into(store.keys(), None, query, &mut weights);
    weights
}

/// Substitute compressed KV into gathered rows (DESIGN.md §9): `keys` and
/// `values` hold the rows of `store` at `selected` (row `r` is position
/// `selected[r]`), and every selected position that belongs to one of
/// `pages` is overwritten with its page's SLERP-merged,
/// quantize-round-tripped reconstruction. Other rows (sinks, pending decode
/// tokens, the position being generated) keep their exact KV.
///
/// Each page is reconstructed over its *full* membership from `store`,
/// never the selection, so the result depends only on `(compression,
/// membership, stored KV)`. Returns the pages' exact bytes, compressed
/// bytes and merged pairs, summed. Under a lossless config the
/// reconstruction is the identity, so the rows are left as they are and
/// only the (equal) exact and stored bytes are tallied.
pub fn substitute_compressed<'a>(
    store: &KvStore,
    selected: &[usize],
    pages: impl IntoIterator<Item = &'a [usize]>,
    compression: CompressionConfig,
    keys: &mut Matrix,
    values: &mut Matrix,
) -> (u64, u64, u64) {
    if compression.is_lossless() {
        let bytes = pages
            .into_iter()
            .map(|members| Bytes::of_f16(2 * members.len() * store.head_dim()).get())
            .sum();
        return (bytes, bytes, 0);
    }
    let row_of: BTreeMap<usize, usize> = selected
        .iter()
        .enumerate()
        .map(|(row, &pos)| (pos, row))
        .collect();
    let mut totals = (0, 0, 0);
    for members in pages {
        let page = compress_page(store.keys(), store.values(), members, compression);
        totals.0 += page.exact_bytes.get();
        totals.1 += page.compressed_bytes.get();
        totals.2 += page.merged_pairs as u64;
        for (i, pos) in members.iter().enumerate() {
            if let Some(&row) = row_of.get(pos) {
                keys.row_mut(row).copy_from_slice(page.keys.row(i));
                values.row_mut(row).copy_from_slice(page.values.row(i));
            }
        }
    }
    totals
}

/// The pre-kernel-layer scalar attention pipeline (iterator logits via
/// scalar `dot`, row-sequential `axpy` reduction), kept as the reference the
/// blocked path is property-tested and speedup-gated against.
pub fn attend_selected_reference(
    store: &KvStore,
    query: &[f32],
    indices: &[usize],
) -> AttentionOutput {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    let keys = indices.iter().map(|&i| store.key(i));
    let weights = attention_weights(query, keys);
    let values = indices.iter().map(|&i| store.value(i));
    let output = weighted_sum(&weights, values, store.head_dim());
    AttentionOutput { output, weights }
}

/// L2 error between the full-attention output and the output computed over a
/// selected subset, normalised by the full output's norm. This is the
/// quantity the accuracy proxies in `clusterkv-workloads` are built on.
pub fn attention_output_error(store: &KvStore, query: &[f32], indices: &[usize]) -> f32 {
    let full = attend_full(store, query);
    let approx = attend_selected(store, query, indices);
    let diff: f32 = full
        .output
        .iter()
        .zip(&approx.output)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    let denom: f32 = full.output.iter().map(|x| x * x).sum::<f32>().sqrt();
    if denom == 0.0 {
        diff
    } else {
        diff / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(keys: Vec<Vec<f32>>, values: Vec<Vec<f32>>) -> KvStore {
        let dim = keys[0].len();
        let mut s = KvStore::new(dim);
        for (k, v) in keys.iter().zip(&values) {
            s.append(k, v);
        }
        s
    }

    #[test]
    fn full_attention_matches_selected_with_all_indices() {
        let store = store_with(
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        );
        let q = [0.5, 0.25];
        let full = attend_full(&store, &q);
        let sel = attend_selected(&store, &q, &[0, 1, 2]);
        assert_eq!(full.output, sel.output);
        assert_eq!(full.weights, sel.weights);
    }

    #[test]
    fn weights_sum_to_one_and_align_with_index_order() {
        let store = store_with(
            vec![vec![2.0, 0.0], vec![0.0, 2.0], vec![-2.0, 0.0]],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
        );
        let out = attend_selected(&store, &[1.0, 0.0], &[2, 0]);
        assert_eq!(out.weights.len(), 2);
        assert!((out.weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Key 0 is aligned with the query, key 2 is anti-aligned; weights
        // stay aligned with the order of the caller's indices [2, 0].
        assert!(out.weights[1] > out.weights[0]);
    }

    #[test]
    fn workspace_variant_matches_allocating_variant() {
        let store = store_with(
            vec![
                vec![1.0, 0.2],
                vec![0.3, -0.9],
                vec![0.7, 0.7],
                vec![-1.0, 0.1],
            ],
            vec![
                vec![0.5, 0.1],
                vec![1.5, -0.5],
                vec![0.0, 2.0],
                vec![0.25, 0.25],
            ],
        );
        let q = [0.4, -0.6];
        let mut ws = Workspace::new();
        attend_selected_ws(&store, &q, &[3, 1, 0], &mut ws);
        let alloc = attend_selected(&store, &q, &[3, 1, 0]);
        assert_eq!(ws.out, alloc.output);
        assert_eq!(ws.weights, alloc.weights);
        let warm = ws.allocated_bytes();
        for _ in 0..10 {
            attend_selected_ws(&store, &q, &[3, 1, 0], &mut ws);
            full_attention_weights_ws(&store, &q, &mut ws);
        }
        assert_eq!(ws.allocated_bytes(), warm, "workspace must not grow");
    }

    #[test]
    fn blocked_attention_matches_scalar_reference() {
        let store = store_with(
            vec![
                vec![1.0, 0.5, -0.25, 2.0],
                vec![0.3, -0.2, 0.8, -1.0],
                vec![0.0, 1.0, 0.0, 0.5],
                vec![2.0, -0.5, 1.5, 0.25],
                vec![-0.75, 0.1, 0.9, -0.3],
            ],
            vec![
                vec![0.1, 0.2, 0.3, 0.4],
                vec![-0.4, 0.3, -0.2, 0.1],
                vec![1.0, -1.0, 0.5, -0.5],
                vec![0.0, 0.25, 0.5, 0.75],
                vec![0.6, -0.6, 0.2, -0.2],
            ],
        );
        let q = [0.7, -0.1, 0.4, 0.9];
        for indices in [vec![0usize, 1, 2, 3, 4], vec![4, 2, 0], vec![1]] {
            let blocked = attend_selected(&store, &q, &indices);
            let reference = attend_selected_reference(&store, &q, &indices);
            for (b, r) in blocked.weights.iter().zip(&reference.weights) {
                assert!((b - r).abs() <= 1e-5, "weights {b} vs {r}");
            }
            for (b, r) in blocked.output.iter().zip(&reference.output) {
                assert!((b - r).abs() <= 1e-4, "output {b} vs {r}");
            }
        }
    }

    #[test]
    fn selecting_the_important_token_gives_small_error() {
        // One key dominates the softmax; selecting just that token should
        // approximate full attention much better than selecting another.
        let store = store_with(
            vec![vec![8.0, 0.0], vec![0.0, 0.1], vec![0.1, 0.0]],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]],
        );
        let q = [4.0, 0.0];
        let err_good = attention_output_error(&store, &q, &[0]);
        let err_bad = attention_output_error(&store, &q, &[1]);
        assert!(err_good < err_bad);
        assert!(err_good < 0.1);
    }

    #[test]
    fn full_attention_weights_match_attend_full() {
        let store = store_with(
            vec![vec![1.0, 0.5], vec![0.3, -0.2], vec![0.0, 1.0]],
            vec![vec![0.0, 0.0]; 3],
        );
        let q = [0.7, -0.1];
        let w1 = full_attention_weights(&store, &q);
        let w2 = attend_full(&store, &q).weights;
        assert_eq!(w1, w2, "both full paths share the same kernels");
    }

    #[test]
    fn error_of_full_selection_is_zero() {
        let store = store_with(
            vec![vec![1.0, 2.0], vec![2.0, 1.0]],
            vec![vec![0.5, 0.5], vec![1.5, -0.5]],
        );
        let err = attention_output_error(&store, &[1.0, 1.0], &[0, 1]);
        assert!(err < 1e-6);
    }

    #[test]
    fn lossless_substitution_is_the_identity_with_compress_page_bytes() {
        let store = store_with(
            (0..6).map(|i| vec![i as f32, 1.0 - i as f32]).collect(),
            (0..6).map(|i| vec![0.5 * i as f32, -1.0]).collect(),
        );
        let selected = [4usize, 0, 2, 5];
        let pages: [&[usize]; 2] = [&[0, 1, 2], &[4, 5]];
        let mut keys = store.keys().select_rows(&selected);
        let mut values = store.values().select_rows(&selected);
        let lossless = CompressionConfig::lossless();
        let totals =
            substitute_compressed(&store, &selected, pages, lossless, &mut keys, &mut values);
        assert_eq!(keys, store.keys().select_rows(&selected));
        assert_eq!(values, store.values().select_rows(&selected));
        let page_bytes: u64 = pages
            .iter()
            .map(|m| compress_page(store.keys(), store.values(), m, lossless))
            .map(|p| p.exact_bytes.get())
            .sum();
        assert_eq!(totals, (page_bytes, page_bytes, 0));
    }
}
