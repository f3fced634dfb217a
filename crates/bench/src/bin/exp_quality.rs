//! Experiment E15 — quality vs memory of the compressed KV tier
//! (DESIGN.md §9).
//!
//! Runs ClusterKV, Quest and H2O through the quality lane — the harness
//! decode loop ([`clusterkv_workloads::run_episode_cached`]) over a
//! zero-capacity cache carrying each rung's compression — across the
//! compression ladder
//! (lossless → int8 → int8+merge → int4 → int4+merge) and gates the three
//! properties the tier promises, rather than assuming them:
//!
//! * **Lossless parity** — under the lossless config every method's
//!   per-step recall/error/selection vectors are *bit-identical* to
//!   [`run_episode`]'s: the compressed tier is a pure pass-through when
//!   turned off.
//! * **Memory at bounded quality** — ClusterKV's int4+merge lane reaches at
//!   least [`RATIO_FLOOR`]x cold-KV memory reduction while its
//!   compression-aware perplexity stays within [`PPL_DELTA_CEILING`] of the
//!   lossless run.
//! * **Monotone frontier** — for every method, each compression step along
//!   the ladder's partial order (quantize coarser, or merge at fixed width)
//!   strictly shrinks bytes and never improves perplexity: points trade
//!   memory for quality, they do not get both.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_quality`
//! (set `EXP_QUALITY_SMOKE=1` for the CI-sized episode, `--json` for the
//! machine-readable summary).

use clusterkv::{ClusterKvConfig, ClusterKvFactory};
use clusterkv_baselines::BaselineKind;
use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig};
use clusterkv_kvcache::compressed::CompressionConfig;
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::policy::{HeadContext, SelectorFactory};
use clusterkv_workloads::{
    perplexity_proxy, run_episode, run_episode_cached, Episode, EpisodeConfig, EpisodeResult,
    LongBenchDataset,
};

const SEED: u64 = 0xE15;
/// Gate: ClusterKV's int4+merge lane must shrink cold KV by at least this
/// factor.
const RATIO_FLOOR: f64 = 4.0;
/// Gate: the same lane's compression-aware perplexity may exceed the
/// lossless run by at most this much. The proxy's base is 10.2 (PG19 /
/// Llama-3-8B full attention), so this bounds the compression-induced
/// degradation to well under the gap selective attention itself causes.
const PPL_DELTA_CEILING: f64 = 1.5;
/// SLERP merge threshold of the `+merge` lanes (cosine distance).
const MERGE: f32 = 0.3;
/// Merging may not *improve* perplexity by more than this. Strict
/// monotonicity holds for quantization (same vectors, coarser grid) but not
/// for merging: replacing a pair by its SLERP mean changes the page's
/// max-abs quantization scales, which can coincidentally shrink the
/// quantization error of the surviving vectors by a hair.
const MERGE_PPL_SLACK: f64 = 0.05;

fn smoke() -> bool {
    std::env::var("EXP_QUALITY_SMOKE").is_ok()
}

fn episode() -> Episode {
    let (context_len, decode_steps, num_topics) = if smoke() {
        (384, 12, 8)
    } else {
        (2048, 48, 24)
    };
    Episode::generate(
        EpisodeConfig::default()
            .with_context_len(context_len)
            .with_decode_steps(decode_steps)
            .with_num_topics(num_topics)
            .with_seed(SEED),
    )
}

fn budget() -> usize {
    if smoke() {
        96
    } else {
        512
    }
}

/// The compression ladder, lossless first. `(label, config)`.
fn ladder() -> Vec<(String, CompressionConfig)> {
    [
        CompressionConfig::lossless(),
        CompressionConfig::int8(),
        CompressionConfig::int8().with_merge_threshold(MERGE),
        CompressionConfig::int4(),
        CompressionConfig::int4().with_merge_threshold(MERGE),
    ]
    .into_iter()
    .map(|c| (c.to_string(), c))
    .collect()
}

/// Selector factory for `method` under `compression`. ClusterKV carries the
/// config in its own policy config (so its plans page by cluster and are
/// marked recall-compressed); the baselines are compression-oblivious — the
/// quality lane compresses their selections in positional blocks.
fn factory(method: &str, compression: CompressionConfig) -> Box<dyn SelectorFactory> {
    match method {
        "ClusterKV" => Box::new(ClusterKvFactory::new(
            ClusterKvConfig::default()
                .with_tokens_per_cluster(16)
                .with_compression(compression),
        )),
        "Quest" => BaselineKind::Quest.factory(),
        "H2O" => BaselineKind::H2o.factory(),
        other => panic!("unknown method {other}"),
    }
}

fn ctx(episode: &Episode) -> HeadContext {
    HeadContext {
        layer: 2,
        head: 0,
        head_dim: episode.config.head_dim,
    }
}

fn run_lane(method: &str, episode: &Episode, compression: CompressionConfig) -> EpisodeResult {
    let factory = factory(method, compression);
    let mut selector = factory.create(ctx(episode));
    let mut cache = ClusterCache::new(
        ClusterCacheConfig::new(Bytes(0), episode.config.head_dim).with_compression(compression),
    );
    run_episode_cached(
        episode,
        selector.as_mut(),
        Budget::new(budget()),
        &mut cache,
    )
}

struct MethodFrontier {
    method: &'static str,
    /// One point per ladder rung, in ladder order.
    points: Vec<(String, EpisodeResult)>,
}

fn emit_json(frontiers: &[MethodFrontier], parity_methods: usize) {
    let profile = LongBenchDataset::TwoWikiMqa.profile();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"exp_quality\",\n");
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str(&format!("  \"budget\": {},\n", budget()));
    out.push_str(&format!(
        "  \"lossless_parity_methods\": {parity_methods},\n"
    ));
    out.push_str("  \"frontier\": {\n");
    for (mi, f) in frontiers.iter().enumerate() {
        out.push_str(&format!("    \"{}\": [\n", f.method));
        for (i, (label, q)) in f.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"config\": \"{}\", \"compression_ratio\": {:.4}, \
                 \"compressed_bytes\": {}, \"exact_bytes\": {}, \
                 \"merged_pairs\": {}, \"mean_recall\": {:.6}, \
                 \"reconstruction_error\": {:.6}, \"perplexity\": {:.6}, \
                 \"longbench_score\": {:.4}}}{}",
                label,
                q.compression_ratio(),
                q.compressed_bytes,
                q.exact_bytes,
                q.merged_pairs,
                q.mean_recall(),
                q.mean_reconstruction_error(),
                perplexity_proxy(q),
                profile.score(q),
                if i + 1 < f.points.len() { "," } else { "" }
            ));
            out.push('\n');
        }
        out.push_str(&format!(
            "    ]{}\n",
            if mi + 1 < frontiers.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    print!("{out}");
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let episode = episode();
    let methods = ["ClusterKV", "Quest", "H2O"];
    let rungs = ladder();

    if !json {
        println!("# Quality vs memory of the compressed KV tier (DESIGN.md §9)\n");
        println!(
            "episode: {} context tokens, {} decode steps, budget {}{}\n",
            episode.config.context_len,
            episode.config.decode_steps,
            budget(),
            if smoke() { " (smoke scale)" } else { "" }
        );
    }

    // ---- Gate (a): lossless parity — the quality lane over a lossless cache
    // reproduces `run_episode` bit for bit, for every method.
    let mut parity_methods = 0;
    for method in methods {
        let f = factory(method, CompressionConfig::lossless());
        let mut plain = f.create(ctx(&episode));
        let baseline = run_episode(&episode, plain.as_mut(), Budget::new(budget()));
        let q = run_lane(method, &episode, CompressionConfig::lossless());
        assert_eq!(
            q.per_step_recall, baseline.per_step_recall,
            "{method}: lossless recall diverged from the plain harness"
        );
        assert_eq!(
            q.per_step_error, baseline.per_step_error,
            "{method}: lossless error diverged from the plain harness"
        );
        assert_eq!(
            q.per_step_selected, baseline.per_step_selected,
            "{method}: lossless selection diverged from the plain harness"
        );
        assert_eq!(
            q.compressed_bytes, q.exact_bytes,
            "{method}: lossless pages must be byte-equal"
        );
        assert!(
            q.per_step_reconstruction_error.iter().all(|&e| e == 0.0),
            "{method}: lossless reconstruction must be exact"
        );
        parity_methods += 1;
    }
    if !json {
        println!(
            "Lossless parity: {parity_methods} methods bit-identical to the \
             plain harness (recall, error, selection), compressed bytes \
             equal exact bytes, zero reconstruction error.\n"
        );
    }

    // ---- Frontier: every method across the ladder.
    let frontiers: Vec<MethodFrontier> = methods
        .iter()
        .map(|&method| MethodFrontier {
            method,
            points: rungs
                .iter()
                .map(|(label, c)| (label.clone(), run_lane(method, &episode, *c)))
                .collect(),
        })
        .collect();

    // ---- Gate (b): monotone frontier along the ladder's partial order.
    // Coarser quantization at a fixed merge setting, and merging at a fixed
    // width, must both shrink bytes and not improve perplexity. Quantization
    // edges are strictly monotone (same vectors, coarser grid); merge edges
    // get `MERGE_PPL_SLACK` (see its doc comment).
    // Ladder indices: 0 lossless, 1 int8, 2 int8+merge, 3 int4, 4 int4+merge.
    let quant_edges: [(usize, usize); 4] = [(0, 1), (1, 3), (0, 3), (2, 4)];
    let merge_edges: [(usize, usize); 2] = [(1, 2), (3, 4)];
    for f in &frontiers {
        for (edges, slack) in [(&quant_edges[..], 0.0), (&merge_edges[..], MERGE_PPL_SLACK)] {
            for &(a, b) in edges {
                let (la, qa) = &f.points[a];
                let (lb, qb) = &f.points[b];
                assert!(
                    qb.compressed_bytes < qa.compressed_bytes,
                    "{}: {lb} must store fewer bytes than {la} ({} vs {})",
                    f.method,
                    qb.compressed_bytes,
                    qa.compressed_bytes
                );
                assert!(
                    perplexity_proxy(qb) >= perplexity_proxy(qa) - slack,
                    "{}: {lb} must not beat {la} on perplexity ({} vs {})",
                    f.method,
                    perplexity_proxy(qb),
                    perplexity_proxy(qa)
                );
            }
        }
    }

    // ---- Gate (c): ClusterKV's int4+merge lane reaches the memory floor at
    // bounded perplexity cost.
    let clusterkv = &frontiers[0];
    let (_, lossless) = &clusterkv.points[0];
    let (_, best) = &clusterkv.points[4];
    assert!(
        best.compression_ratio() >= RATIO_FLOOR,
        "ClusterKV int4+merge must reach {RATIO_FLOOR}x cold-KV reduction: {:.3}x",
        best.compression_ratio()
    );
    let ppl_delta = perplexity_proxy(best) - perplexity_proxy(lossless);
    assert!(
        ppl_delta <= PPL_DELTA_CEILING,
        "ClusterKV int4+merge perplexity delta {ppl_delta:.4} exceeds \
         {PPL_DELTA_CEILING} (lossless {:.4}, compressed {:.4})",
        perplexity_proxy(lossless),
        perplexity_proxy(best)
    );
    assert!(
        best.merged_pairs > 0,
        "semantic clusters must yield SLERP merges"
    );

    if !json {
        let profile = LongBenchDataset::TwoWikiMqa.profile();
        for f in &frontiers {
            let mut table = Table::new(vec![
                "Config",
                "Ratio",
                "Recall",
                "Recon err",
                "Perplexity",
                "2WikiMQA",
            ]);
            for (label, q) in &f.points {
                table.row(vec![
                    label.clone(),
                    fmt(q.compression_ratio(), 2),
                    fmt(q.mean_recall(), 3),
                    fmt(q.mean_reconstruction_error(), 4),
                    fmt(perplexity_proxy(q), 3),
                    fmt(profile.score(q), 2),
                ]);
            }
            println!("## {}\n{}", f.method, table.render());
        }
        println!(
            "Frontier gates: monotone along the ladder for all {} methods; \
             ClusterKV int4+merge reaches {:.2}x at perplexity delta \
             {:.3} (ceiling {PPL_DELTA_CEILING}).",
            frontiers.len(),
            best.compression_ratio(),
            ppl_delta
        );
    }

    if json {
        emit_json(&frontiers, parity_methods);
    }
}
