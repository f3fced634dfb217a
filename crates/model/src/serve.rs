//! The serving engine: weights loaded once, N independent sessions, batched
//! decode.
//!
//! [`ServeEngine`] owns the model (config, weights, RoPE tables) exactly once
//! and manages any number of concurrent [`SessionId`]-addressed sequences.
//! Each session carries its own KV stores, per-head selectors, position
//! counter and trace state, so sessions are fully isolated: interleaving
//! their decode steps through [`decode_batch`](ServeEngine::decode_batch)
//! produces byte-identical token streams to running each sequence alone.
//!
//! The per-token transformer math matches the single-sequence flow of the
//! paper (Fig. 5): full causal attention during prefill, per-head
//! selection-plan attention during decoding, with the head's selector
//! observing every produced key. Every decode entry point
//! ([`decode_step`](ServeEngine::decode_step),
//! [`generate`](ServeEngine::generate)) goes through [`decode_batch`], which
//! runs one fixed step per session: forward → observe → settle → stage →
//! faults → price → logits (DESIGN.md §4).
//!
//! Execution is multithreaded (DESIGN.md §4): [`decode_batch`] fans the
//! batch's distinct sessions across the rayon pool (sessions are fully
//! isolated, so this is embarrassingly parallel), and within one session the
//! per-head work — query projection, selection planning, attention — plus
//! the large row-wise projections run data-parallel. Everything
//! order-sensitive (cluster-cache LRU accesses, stats accumulation, traces)
//! happens sequentially in head order after the parallel phase, so token
//! streams and every per-session statistic are byte-identical at any thread
//! count (`RAYON_NUM_THREADS`).
//!
//! [`decode_batch`]: ServeEngine::decode_batch

use crate::attention::{full_attention_weights, substitute_compressed};
use crate::config::ModelConfig;
use crate::latency::{LatencyModel, StepCost};
use crate::policy::{
    FullAttentionSelector, HeadContext, KvResidency, ObserveEvent, PolicyStats, SelectionRequest,
    SelectorFactory, TokenSelector,
};
use crate::prefetch::{PrefetchConfig, PrefetchPredictor};
use crate::rope::Rope;
use crate::trace::{AttentionTrace, TraceStep};
use crate::weights::ModelWeights;
use clusterkv_faults::{backoff_seconds, FaultInjector, FaultPlan, FaultSite, IntegrityStats};
use clusterkv_kvcache::cluster_cache::{ClusterCache, ClusterCacheConfig};
use clusterkv_kvcache::compressed::CompressionConfig;
use clusterkv_kvcache::device::{DeviceModel, Seconds};
use clusterkv_kvcache::prefix::{PrefixStore, PrefixStoreConfig, PrefixStoreStats};
use clusterkv_kvcache::stats::{CompressionStats, PrefetchStats};
use clusterkv_kvcache::types::{Budget, Bytes, HeadId, LayerId};
use clusterkv_kvcache::KvStore;
use clusterkv_tensor::kernels::{attend_into, matvec_rows_into, Workspace};
use clusterkv_tensor::ops::{rms_norm, silu};
use clusterkv_tensor::vector::argmax;
use clusterkv_tensor::Matrix;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Default cap on concurrently resident sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 256;

/// Minimum output rows per worker for the row-wise projections (attention
/// output, FFN gate/up/down, logits): one row is a single `O(hidden)` dot
/// product, so tiny test models stay on one thread while production-sized
/// projections split.
const PROJ_MIN_ROWS_PER_WORKER: usize = 256;

/// Context length from which the per-head attention phase fans out across
/// workers: below this, one head's work (projection, planning, attending at
/// most this many tokens) is cheaper than a thread spawn, so heads stay on
/// one thread. Deterministic in the token position, hence parity-safe.
const HEAD_PAR_MIN_CONTEXT: usize = 512;

/// Errors produced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The model configuration failed validation.
    InvalidConfig(String),
    /// A token id was outside the vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The vocabulary size.
        vocab: usize,
    },
    /// The context window was exceeded.
    ContextOverflow {
        /// Requested context length.
        requested: usize,
        /// Maximum supported context length.
        max: usize,
    },
    /// Decoding was attempted before prefill.
    NotPrefilled,
    /// Prefill was attempted twice on the same session.
    AlreadyPrefilled,
    /// The prompt was empty.
    EmptyPrompt,
    /// An empty chunk was submitted to [`ServeEngine::prefill_chunk`]
    /// (distinct from [`EmptyPrompt`](EngineError::EmptyPrompt): the session
    /// keeps accepting non-empty chunks).
    EmptyChunk,
    /// A prompt chunk was submitted after [`ServeEngine::finish_prefill`]
    /// sealed the prompt.
    PrefillSealed,
    /// The session id is not (or no longer) resident in the engine.
    UnknownSession(SessionId),
    /// The engine is at its session capacity.
    SessionLimitReached {
        /// The configured maximum number of resident sessions.
        max: usize,
    },
    /// `create_session` was called on an engine built without a default
    /// policy (use `create_session_with` or configure one on the builder).
    MissingPolicy,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid model config: {msg}"),
            EngineError::TokenOutOfVocab { token, vocab } => {
                write!(f, "token {token} outside vocabulary of size {vocab}")
            }
            EngineError::ContextOverflow { requested, max } => {
                write!(f, "context of {requested} tokens exceeds maximum {max}")
            }
            EngineError::NotPrefilled => write!(f, "decode requested before prefill"),
            EngineError::AlreadyPrefilled => write!(f, "session is already prefilled"),
            EngineError::EmptyPrompt => write!(f, "prompt must not be empty"),
            EngineError::EmptyChunk => write!(f, "prefill chunk must not be empty"),
            EngineError::PrefillSealed => {
                write!(f, "prompt is sealed; no further prefill chunks accepted")
            }
            EngineError::UnknownSession(id) => write!(f, "unknown session {id}"),
            EngineError::SessionLimitReached { max } => {
                write!(f, "session limit of {max} reached")
            }
            EngineError::MissingPolicy => {
                write!(f, "no default selection policy configured for this engine")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Opaque handle addressing one resident sequence of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id (stable for the lifetime of the engine).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Output of one decoding step for one session.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// The session this step belongs to.
    pub session: SessionId,
    /// Greedily chosen next token id.
    pub next_token: usize,
    /// Logits over the vocabulary.
    pub logits: Vec<f32>,
    /// Final hidden state of the step.
    pub hidden: Vec<f32>,
}

/// Final accounting returned when a session is released.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The released session.
    pub id: SessionId,
    /// Context length at release (prompt + generated tokens).
    pub context_len: usize,
    /// Number of decode steps the session ran.
    pub generated_tokens: usize,
    /// Policy statistics accumulated over every selection plan of the
    /// session, including the residency outcomes (cluster-cache hits and
    /// PCIe recalls) charged by the engine.
    pub stats: PolicyStats,
    /// Modeled decode-side latency of the session under the engine's
    /// roofline device model, with PCIe transfer charged only for
    /// cluster-cache misses.
    pub modeled_decode_time: Seconds,
    /// Prompt positions whose KV was served from the cross-session
    /// [`PrefixStore`] instead of being recomputed (0 without a store, or
    /// for the first session to see a prompt).
    pub shared_prefix_tokens: usize,
    /// KV bytes of the shared prefix positions — charged to the store, not
    /// to this session.
    pub shared_kv_bytes: Bytes,
    /// KV bytes the session was charged for (novel prompt suffix plus every
    /// generated token).
    pub private_kv_bytes: Bytes,
    /// Compressed-tier accounting of the session's cluster cache: page
    /// demotions, tokens served from the compressed GPU tier, and the
    /// exact-vs-compressed byte totals (all zero under a lossless
    /// configuration).
    pub compression: CompressionStats,
    /// Speculative-prefetch accounting of the session's cluster cache:
    /// staged / used / wasted bytes of the staging buffer (all zero with
    /// prefetch disabled — DESIGN.md §10).
    pub prefetch: PrefetchStats,
    /// Modeled PCIe time hidden behind compute by the overlap clock: per
    /// step, `min(gpu, staged)`. Zero with prefetch or overlap disabled.
    pub hidden_transfer_time: Seconds,
    /// Total modeled PCIe time of the session's decode steps (staged +
    /// demand transfers), the denominator of
    /// [`hidden_transfer_fraction`](Self::hidden_transfer_fraction).
    pub transfer_time: Seconds,
    /// Fault-injection and integrity accounting for the session: checksum
    /// verifications, corruptions injected / detected / repaired, and the
    /// modeled transfer retries charged to the clock (DESIGN.md §11). All
    /// zero when the engine runs with faults disabled.
    pub integrity: IntegrityStats,
}

impl SessionReport {
    /// Token-level hit rate of the session's cluster cache in `[0, 1]`
    /// (`0.0` when the session's policy never paged KV — never NaN).
    pub fn cache_hit_rate(&self) -> f64 {
        self.stats.cache.hit_rate()
    }

    /// Bytes recalled from CPU memory over PCIe across the whole session.
    pub fn bytes_recalled(&self) -> Bytes {
        self.stats.transfer.bytes_to_device
    }

    /// Fraction of the session's final context served from shared prefix
    /// pages, in `[0, 1]` (`0.0` for an empty session — never NaN).
    pub fn shared_fraction(&self) -> f64 {
        if self.context_len == 0 {
            0.0
        } else {
            self.shared_prefix_tokens as f64 / self.context_len as f64
        }
    }

    /// Compression ratio `exact / compressed` over every page the session's
    /// cache demoted to the compressed tier; `0.0` when nothing was demoted
    /// (lossless configs, zero-token sessions — never NaN).
    pub fn compression_ratio(&self) -> f64 {
        self.compression.ratio()
    }

    /// Fraction of staged prefetch bytes a demand access later consumed, in
    /// `[0, 1]` (`0.0` when nothing was staged — prefetch-off engines,
    /// empty sessions — never NaN).
    pub fn prefetch_accuracy(&self) -> f64 {
        self.prefetch.accuracy()
    }

    /// Fraction of the session's modeled PCIe time that the overlap clock
    /// hid behind compute, in `[0, 1]` (`0.0` when the session moved no
    /// bytes — never NaN).
    pub fn hidden_transfer_fraction(&self) -> f64 {
        let total = self.transfer_time.get();
        if total == 0.0 {
            0.0
        } else {
            self.hidden_transfer_time.get() / total
        }
    }
}

/// Per-head result of the parallel phase of one token's attention: pure
/// compute (query projection, selection planning, attention) runs
/// data-parallel across heads; everything order-sensitive — cluster-cache
/// accesses (LRU stamps), stats accumulation, traces — is applied from these
/// outcomes sequentially in head order, which is what keeps N-thread and
/// 1-thread runs byte-identical.
struct HeadOutcome {
    /// Token indices attended during decoding (the plan plus the forced
    /// current position). Empty during prefill, where attention runs the
    /// dedicated no-index-vec full path.
    selected: Vec<usize>,
    /// Per-call stats reported by the selector (`None` during prefill).
    stats: Option<PolicyStats>,
    /// Page decomposition of the plan (`None` during prefill or when the
    /// selected KV is trivially resident).
    pages: Option<Vec<crate::policy::PageRequest>>,
    /// Whether the pages were recalled through the compressed tier: phase 2
    /// then charges the compressed byte count instead of exact token
    /// transfers.
    compressed: bool,
    /// Clusters the lookahead predictor nominates for the next step
    /// (DESIGN.md §10). Always empty unless the engine runs the
    /// [`Lookahead`](PrefetchPredictor::Lookahead) predictor, so
    /// prefetch-off engines allocate nothing here.
    hint: Vec<crate::policy::PageRequest>,
    /// Post-RoPE query, cloned out of the head's workspace only for traced
    /// heads (empty otherwise — tracing is the one consumer).
    query: Vec<f32>,
}

/// Lifecycle of one session, from creation to decodability.
///
/// Replaces the former `prefilled: bool`: chunked prefill
/// ([`ServeEngine::prefill_chunk`]) introduces a third state in which some
/// prompt tokens are forwarded but the session is not yet decodable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionPhase {
    /// Created; no prompt tokens forwarded yet.
    Fresh,
    /// At least one prefill chunk forwarded; more may follow until
    /// [`ServeEngine::finish_prefill`] seals the prompt.
    Prefilling,
    /// Prefill complete (selectors reconciled, memory settled); the session
    /// decodes.
    Ready,
}

/// Totals one decode step accumulates across every selective-layer head,
/// mapped onto a [`StepCost`] after the step to price its latency.
#[derive(Debug, Clone, Copy, Default)]
struct StepAccounting {
    /// Vectors scored during selection.
    scored: u64,
    /// Tokens recalled exactly (f16) from CPU memory on cluster-cache
    /// misses.
    transferred: u64,
    /// Tokens attended by selective-layer heads.
    attended: u64,
    /// Bytes recalled for compressed pages on cluster-cache misses. Tracked
    /// in bytes, not tokens: quantized pages move fewer bytes per token, and
    /// the cache reports the exact compressed count (DESIGN.md §9).
    transferred_compressed_bytes: u64,
    /// Bytes the prefetcher staged this step (overlapped with this step's
    /// compute by the overlap clock — DESIGN.md §10).
    staged_bytes: u64,
    /// Exact-plan miss tokens served out of the staging buffer this step:
    /// their PCIe transfer was already charged (overlapped) when they were
    /// staged, so the overlap clock subtracts them from the demand term.
    promoted_tokens: u64,
    /// Compressed-plan miss bytes served out of the staging buffer this
    /// step (the compressed-tier analogue of `promoted_tokens`).
    promoted_compressed_bytes: u64,
    /// Bytes re-transferred this step for modeled transfer failures and
    /// checksum repairs. Priced as extra demand PCIe time; never changes
    /// what the step attends (DESIGN.md §11).
    retried_bytes: u64,
    /// Modeled exponential-backoff wait accumulated by this step's retries,
    /// added verbatim to the demand term of the overlap clock.
    backoff_seconds: f64,
}

/// Per-session state: everything that differs between concurrent sequences.
struct SessionState {
    /// KV stores indexed by `[layer][kv_head]`.
    kv: Vec<Vec<KvStore>>,
    /// Selectors indexed by `[layer][query_head]`; dense layers hold
    /// [`FullAttentionSelector`]s.
    selectors: Vec<Vec<Box<dyn TokenSelector>>>,
    /// Heads to trace: map from `(layer, head)` to the trace being built.
    traces: BTreeMap<(usize, usize), AttentionTrace>,
    /// Context length so far; doubles as the RoPE position of the next token.
    num_tokens: usize,
    /// Number of decode steps run.
    generated_tokens: usize,
    /// Where the session is in its prefill → decode lifecycle.
    phase: SessionPhase,
    /// Token fed to the next decode step (last prompt token after prefill,
    /// then the previously generated token — overridable for external
    /// sampling via [`ServeEngine::set_next_input`]).
    next_input: Option<usize>,
    /// Policy statistics accumulated from every selection plan, with
    /// residency outcomes filled in from `cache`.
    stats: PolicyStats,
    /// The session's tiered KV hierarchy: GPU-resident selected-KV pages
    /// over the CPU backing store. Capacity 0 models pure offload (every
    /// selected page is recalled every step).
    cache: ClusterCache,
    /// One kernel workspace per query head (heads run data-parallel, each
    /// worker owns its scratch). Buffers grow to the steady-state working
    /// set during the first decode steps and are reused afterwards, so the
    /// per-head attention phase performs no heap allocation (DESIGN.md §6).
    workspaces: Vec<Workspace>,
    /// Concatenated per-head attention outputs of the current layer; heads
    /// write disjoint `head_dim` slices during the parallel phase.
    concat: Vec<f32>,
    /// Scratch for the per-KV-head key/value projections of one token.
    k_scratch: Vec<f32>,
    /// See `k_scratch`.
    v_scratch: Vec<f32>,
    /// Totals of the decode step currently in flight.
    step: StepAccounting,
    /// Modeled decode latency accumulated over every step.
    modeled_decode: Seconds,
    /// Modeled PCIe time hidden behind compute (`min(gpu, staged)` summed
    /// over steps — DESIGN.md §10). Stays zero without the overlap clock.
    hidden_transfer: Seconds,
    /// Total modeled PCIe time (staged + demand) summed over decode steps.
    transfer_time: Seconds,
    /// Pages nominated for the next step's staging pass, collected in
    /// deterministic (layer, head) order during phase 2 and drained by the
    /// end-of-step staging pass. Only ever written when prefetch is
    /// enabled, so prefetch-off engines never allocate here.
    nominations: Vec<(usize, usize, Vec<crate::policy::PageRequest>)>,
    /// The prompt tokens fed so far, buffered only while the engine has a
    /// [`PrefixStore`] (lookup during chunks, donation at
    /// `finish_prefill`, unpinning at release).
    prompt_tokens: Vec<usize>,
    /// Whether prefill chunks are still walking the prefix tree. Starts true
    /// iff the engine has a store; cleared at the first divergence.
    prefix_active: bool,
    /// Prompt positions whose KV is store-backed (served by — or, for the
    /// recomputed last token of a chunk, available from — shared pages).
    /// Drives the shared-vs-private byte accounting.
    matched_prefix_tokens: usize,
    /// Prompt positions whose forward pass was actually skipped (KV copied
    /// from shared pages). Drives the compute/FLOP accounting; differs from
    /// `matched_prefix_tokens` by at most one recomputed token per chunk.
    fastpath_prefix_tokens: usize,
    /// The exact token prefix this session has pinned in the store
    /// (admission pin before prefill, the full prompt after donation);
    /// unpinned at release.
    pinned_prompt: Vec<usize>,
    /// Integrity accounting local to this session's fault seams (prefix
    /// adoption verifies, transfer retries). Merged with the cluster
    /// cache's own [`IntegrityStats`] at release.
    integrity: IntegrityStats,
}

/// Builder for [`ServeEngine`].
pub struct ServeEngineBuilder {
    config: ModelConfig,
    weights: Option<ModelWeights>,
    synthetic_seed: u64,
    budget: Budget,
    policy: Option<Box<dyn SelectorFactory>>,
    max_sessions: usize,
    kv_cache_capacity: Option<Bytes>,
    prefix_store_capacity: Option<Bytes>,
    device: DeviceModel,
    compression: CompressionConfig,
    prefetch: PrefetchConfig,
    faults: FaultPlan,
}

impl ServeEngineBuilder {
    /// Start building an engine for the given model shape. Without further
    /// calls the engine uses synthetic weights from seed 0, an unbounded
    /// budget, no default policy, no GPU cluster cache (pure offload) and an
    /// Ada-6000 device model.
    pub fn new(config: ModelConfig) -> Self {
        Self {
            config,
            weights: None,
            synthetic_seed: 0,
            budget: Budget::new(usize::MAX),
            policy: None,
            max_sessions: DEFAULT_MAX_SESSIONS,
            kv_cache_capacity: None,
            prefix_store_capacity: None,
            device: DeviceModel::ada6000(),
            compression: CompressionConfig::lossless(),
            prefetch: PrefetchConfig::disabled(),
            faults: FaultPlan::disabled(),
        }
    }

    /// Use explicit model weights.
    pub fn weights(mut self, weights: ModelWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Generate deterministic synthetic weights from `seed`.
    pub fn synthetic_weights(mut self, seed: u64) -> Self {
        self.weights = None;
        self.synthetic_seed = seed;
        self
    }

    /// KV budget `B` every selective head must respect.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Default selection policy used by
    /// [`create_session`](ServeEngine::create_session).
    pub fn policy(mut self, factory: Box<dyn SelectorFactory>) -> Self {
        self.policy = Some(factory);
        self
    }

    /// Cap on concurrently resident sessions (default
    /// [`DEFAULT_MAX_SESSIONS`]).
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max;
        self
    }

    /// Give every session a GPU cluster cache of `capacity` bytes for its
    /// selected-KV pages. Without this call (or with capacity 0) the engine
    /// models pure offload: every selected page is recalled from CPU memory
    /// at every step. Residency affects accounting and modeled latency
    /// only — token streams are identical whatever the capacity.
    ///
    /// Residency is tracked per *query* head (selectors select
    /// independently, so their pages are distinct even within a GQA group):
    /// under GQA the same physical KV may be resident once per query head
    /// sharing it. Size capacities with
    /// [`ModelConfig::selected_kv_bytes_per_step`], which counts query
    /// heads, rather than from `kv_bytes_per_token`.
    pub fn kv_cache_capacity(mut self, capacity: Bytes) -> Self {
        self.kv_cache_capacity = Some(capacity);
        self
    }

    /// Device model used to price modeled decode latency and PCIe recall
    /// (default [`DeviceModel::ada6000`]).
    pub fn device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Compressed-tier configuration for every session's cluster cache
    /// (DESIGN.md §9): lossy settings shrink demoted pages (SLERP merging +
    /// int8/int4 cold KV) and price recalls at the compressed byte count.
    /// Defaults to [`CompressionConfig::lossless`], which keeps the
    /// byte-parity guarantee. Pass the same configuration the selection
    /// policy was built with (e.g. `ClusterKvConfig::compression`): the
    /// policy decides *when* to emit recall-compressed plans, this knob
    /// decides *how* the engine reconstructs and accounts for them.
    pub fn compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Speculative cluster prefetch (DESIGN.md §10): sessions get a bounded
    /// staging buffer of [`PrefetchConfig::staging_capacity`] bytes, the
    /// configured predictor nominates next-step clusters at every decode
    /// step, and — when [`PrefetchConfig::overlap`] is set — staged
    /// transfers overlap compute in the modeled clock
    /// (`max(compute, staged) + demand`). Defaults to
    /// [`PrefetchConfig::disabled`]. Prefetch changes *when* bytes move,
    /// never *what* attends: token streams, hit rates and recalled bytes
    /// are byte-identical whatever this setting.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Enable the workspace-global [`PrefixStore`]: sessions whose prompts
    /// share a prefix reuse its KV pages, key-norm caches and cluster
    /// centroids instead of recomputing them, with `capacity` bytes of
    /// zero-refcount pages retained LRU-style for cross-session temporal
    /// reuse (DESIGN.md §8). Without this call every session prefills cold.
    ///
    /// Sharing changes what is computed and stored, never what attends:
    /// token streams are byte-identical with and without the store, at any
    /// chunking and any thread count (enforced by the prefix parity suite).
    pub fn prefix_store(mut self, capacity: Bytes) -> Self {
        self.prefix_store_capacity = Some(capacity);
        self
    }

    /// Deterministic fault injection (DESIGN.md §11): modeled transfer
    /// failures retried with exponential backoff on the modeled clock, and
    /// checksum corruption of resident KV pages, detected and repaired by
    /// the integrity scrub. Every decision is a pure function of
    /// `(plan seed, site, session id, step)`, so fault schedules are
    /// bit-identical across runs, chunkings and thread counts. Faults change
    /// *when* and *how long*, never *what attends*: completed token streams
    /// are byte-identical with faults on or off. Defaults to
    /// [`FaultPlan::disabled`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Validate the configuration and build the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] if the configuration fails
    /// [`ModelConfig::validate`] or the fault plan fails
    /// [`FaultPlan::validate`].
    pub fn build(self) -> Result<ServeEngine, EngineError> {
        self.config.validate().map_err(EngineError::InvalidConfig)?;
        self.faults.validate().map_err(EngineError::InvalidConfig)?;
        let weights = self
            .weights
            .unwrap_or_else(|| ModelWeights::synthetic(&self.config, self.synthetic_seed));
        Ok(ServeEngine {
            model: Model {
                config: self.config,
                weights,
                rope: Rope::new(self.config.head_dim, 10_000.0),
                latency: LatencyModel::new(self.config, self.device),
            },
            budget: self.budget,
            policy: self.policy,
            sessions: BTreeMap::new(),
            next_session: 0,
            max_sessions: self.max_sessions,
            kv_cache_capacity: self.kv_cache_capacity.unwrap_or(Bytes(0)),
            compression: self.compression,
            prefetch: self.prefetch,
            prefix: self.prefix_store_capacity.map(|capacity| {
                PrefixStore::new(PrefixStoreConfig {
                    capacity,
                    layers: self.config.num_layers,
                    kv_heads: self.config.num_kv_heads,
                    head_dim: self.config.head_dim,
                })
            }),
            injector: FaultInjector::new(self.faults),
        })
    }
}

/// The model, loaded once and shared read-only by every session and decode
/// worker: its shape, weights, RoPE tables and the roofline pricing of a
/// decode step.
struct Model {
    config: ModelConfig,
    weights: ModelWeights,
    rope: Rope,
    latency: LatencyModel,
}

/// A decoder-only transformer serving N independent sequences with per-head
/// KV-selection policies.
pub struct ServeEngine {
    model: Model,
    budget: Budget,
    policy: Option<Box<dyn SelectorFactory>>,
    sessions: BTreeMap<u64, SessionState>,
    next_session: u64,
    max_sessions: usize,
    /// GPU capacity of each session's cluster cache (0 = pure offload).
    kv_cache_capacity: Bytes,
    /// Compressed-tier configuration applied to every session's cache.
    compression: CompressionConfig,
    /// Speculative prefetch: predictor, staging capacity, per-step byte cap
    /// and the overlap-clock switch (DESIGN.md §10).
    prefetch: PrefetchConfig,
    /// Cross-session shared-prefix pages (`None` = every session cold).
    prefix: Option<PrefixStore>,
    /// Deterministic fault injector driving the recovery seams
    /// (DESIGN.md §11); a disabled plan makes every decision a no-op.
    injector: FaultInjector,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.model.config)
            .field("budget", &self.budget)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("sessions", &self.sessions.len())
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ServeEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngineBuilder")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Start building an engine.
    pub fn builder(config: ModelConfig) -> ServeEngineBuilder {
        ServeEngineBuilder::new(config)
    }

    /// Model configuration in use.
    pub fn config(&self) -> &ModelConfig {
        &self.model.config
    }

    /// KV cache budget used for selection.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Number of resident sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Resident session ids, in creation order (ids are allocated
    /// monotonically and the session table is ordered, so the key order is
    /// the creation order).
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().map(SessionId).collect()
    }

    fn session(&self, id: SessionId) -> Result<&SessionState, EngineError> {
        self.sessions
            .get(&id.0)
            .ok_or(EngineError::UnknownSession(id))
    }

    fn session_mut(&mut self, id: SessionId) -> Result<&mut SessionState, EngineError> {
        self.sessions
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownSession(id))
    }

    /// Create a session using the engine's default policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingPolicy`] when the engine was built without a
    /// default policy; [`EngineError::SessionLimitReached`] at capacity.
    pub fn create_session(&mut self) -> Result<SessionId, EngineError> {
        if self.policy.is_none() {
            return Err(EngineError::MissingPolicy);
        }
        // Build the selectors through a reborrow so the factory box can be
        // consulted while `self` is otherwise borrowed.
        let selectors = {
            let factory = self.policy.as_deref().expect("checked above");
            Self::make_selectors(&self.model.config, factory)
        };
        self.insert_session(selectors)
    }

    /// Create a session with an explicit selection policy (sessions with
    /// different policies can coexist in one engine).
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionLimitReached`] at capacity.
    pub fn create_session_with(
        &mut self,
        factory: &dyn SelectorFactory,
    ) -> Result<SessionId, EngineError> {
        let selectors = Self::make_selectors(&self.model.config, factory);
        self.insert_session(selectors)
    }

    fn make_selectors(
        config: &ModelConfig,
        factory: &dyn SelectorFactory,
    ) -> Vec<Vec<Box<dyn TokenSelector>>> {
        (0..config.num_layers)
            .map(|layer| {
                (0..config.num_heads)
                    .map(|head| {
                        if layer < config.dense_layers {
                            Box::new(FullAttentionSelector) as Box<dyn TokenSelector>
                        } else {
                            factory.create(HeadContext {
                                layer,
                                head,
                                head_dim: config.head_dim,
                            })
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn insert_session(
        &mut self,
        selectors: Vec<Vec<Box<dyn TokenSelector>>>,
    ) -> Result<SessionId, EngineError> {
        if self.sessions.len() >= self.max_sessions {
            return Err(EngineError::SessionLimitReached {
                max: self.max_sessions,
            });
        }
        let kv = (0..self.model.config.num_layers)
            .map(|_| {
                (0..self.model.config.num_kv_heads)
                    .map(|_| KvStore::new(self.model.config.head_dim))
                    .collect()
            })
            .collect();
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id.0,
            SessionState {
                kv,
                selectors,
                traces: BTreeMap::new(),
                num_tokens: 0,
                generated_tokens: 0,
                phase: SessionPhase::Fresh,
                next_input: None,
                stats: PolicyStats::default(),
                cache: ClusterCache::new(
                    ClusterCacheConfig::new(self.kv_cache_capacity, self.model.config.head_dim)
                        .with_compression(self.compression)
                        .with_staging(if self.prefetch.enabled() {
                            self.prefetch.staging_capacity
                        } else {
                            Bytes(0)
                        }),
                ),
                step: StepAccounting::default(),
                modeled_decode: Seconds::zero(),
                hidden_transfer: Seconds::zero(),
                transfer_time: Seconds::zero(),
                nominations: Vec::new(),
                prompt_tokens: Vec::new(),
                prefix_active: self.prefix.is_some(),
                matched_prefix_tokens: 0,
                fastpath_prefix_tokens: 0,
                pinned_prompt: Vec::new(),
                integrity: IntegrityStats::default(),
                workspaces: (0..self.model.config.num_heads)
                    .map(|_| Workspace::new())
                    .collect(),
                concat: Vec::new(),
                k_scratch: Vec::new(),
                v_scratch: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Release a session, freeing its KV and selector state.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn release(&mut self, id: SessionId) -> Result<SessionReport, EngineError> {
        let sess = self
            .sessions
            .remove(&id.0)
            .ok_or(EngineError::UnknownSession(id))?;
        if let Some(store) = &mut self.prefix {
            if !sess.pinned_prompt.is_empty() {
                store.unpin_prompt(&sess.pinned_prompt);
            }
        }
        let shared_kv_bytes =
            Bytes(sess.matched_prefix_tokens as u64 * self.model.config.kv_bytes_per_token());
        let private_kv_bytes = Bytes(
            (sess.num_tokens - sess.matched_prefix_tokens) as u64
                * self.model.config.kv_bytes_per_token(),
        );
        let mut integrity = sess.integrity;
        integrity.merge(&sess.cache.integrity());
        Ok(SessionReport {
            id,
            context_len: sess.num_tokens,
            generated_tokens: sess.generated_tokens,
            stats: sess.stats,
            modeled_decode_time: sess.modeled_decode,
            shared_prefix_tokens: sess.matched_prefix_tokens,
            shared_kv_bytes,
            private_kv_bytes,
            compression: sess.cache.compression_stats(),
            prefetch: sess.cache.prefetch_stats(),
            hidden_transfer_time: sess.hidden_transfer,
            transfer_time: sess.transfer_time,
            integrity,
        })
    }

    /// Current context length of a session (prompt + generated tokens).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn context_len(&self, id: SessionId) -> Result<usize, EngineError> {
        Ok(self.session(id)?.num_tokens)
    }

    /// The fault plan the engine was built with
    /// ([`FaultPlan::disabled`] by default).
    pub fn fault_plan(&self) -> FaultPlan {
        *self.injector.plan()
    }

    /// Degradation hook (ladder level 1, DESIGN.md §11): release every
    /// staged page of the session's prefetch buffer, returning the bytes
    /// freed (charged as wasted prefetch). A no-op for sessions without a
    /// staging buffer. Staging only affects the modeled clock, so shedding
    /// it never changes what the session attends.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn shed_staging(&mut self, id: SessionId) -> Result<Bytes, EngineError> {
        Ok(self.session_mut(id)?.cache.drop_staging())
    }

    /// Degradation hook (ladder level 2, DESIGN.md §11): demote the
    /// session's resident exact pages to the compressed GPU tier, returning
    /// how many pages moved. A no-op (0) under a lossless compression
    /// config, where demotion would not shrink anything.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn demote_session(&mut self, id: SessionId) -> Result<usize, EngineError> {
        Ok(self.session_mut(id)?.cache.demote_all())
    }

    /// Live integrity accounting of a session: the session-level fault
    /// seams (prefix-adoption verifies, transfer retries) merged with its
    /// cluster cache's scrub counters. All zero with faults disabled and an
    /// intact store.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn integrity_stats(&self, id: SessionId) -> Result<IntegrityStats, EngineError> {
        let sess = self.session(id)?;
        let mut integrity = sess.integrity;
        integrity.merge(&sess.cache.integrity());
        Ok(integrity)
    }

    /// Whether the engine was built with a cross-session [`PrefixStore`].
    pub fn has_prefix_store(&self) -> bool {
        self.prefix.is_some()
    }

    /// Counters of the engine's [`PrefixStore`] (`None` without one).
    pub fn prefix_store_stats(&self) -> Option<PrefixStoreStats> {
        self.prefix.as_ref().map(PrefixStore::stats)
    }

    /// Length of the prompt prefix the store could serve *and guarantee
    /// through a pin* (whole-node coverage; see [`PrefixStore::peek_match`]).
    /// 0 without a store. Read-only — admission control uses this to shrink
    /// a request's worst-case KV reservation before deciding to admit.
    pub fn prefix_match_len(&self, prompt: &[usize]) -> usize {
        self.prefix
            .as_ref()
            .map_or(0, |store| store.peek_match(prompt))
    }

    /// Pin the currently shareable prefix of `prompt` on behalf of session
    /// `id`, guaranteeing those store pages survive until the session is
    /// released (admission-time companion of [`prefix_match_len`]: pinned
    /// coverage can only grow, so a reservation computed against it stays
    /// sound). Returns the pinned length; 0 (and no pin) without a store.
    /// The pin is swapped for a full-prompt pin when the session seals its
    /// prefill, and dropped at release either way.
    ///
    /// [`prefix_match_len`]: Self::prefix_match_len
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn pin_session_prefix(
        &mut self,
        id: SessionId,
        prompt: &[usize],
    ) -> Result<usize, EngineError> {
        let sess = self
            .sessions
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownSession(id))?;
        let Some(store) = &mut self.prefix else {
            return Ok(0);
        };
        let old_pin = std::mem::take(&mut sess.pinned_prompt);
        let pinned = store.pin_prompt(prompt);
        sess.pinned_prompt = prompt[..pinned].to_vec();
        if !old_pin.is_empty() {
            store.unpin_prompt(&old_pin);
        }
        Ok(pinned)
    }

    /// Per-session prefix accounting: `(store-backed positions, positions
    /// whose forward pass was actually skipped)`. The two differ by the
    /// chunk-last tokens the fast path recomputes to keep returned hidden
    /// states exact. Both 0 without a store or for a cold prompt.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_prefix_tokens(&self, id: SessionId) -> Result<(usize, usize), EngineError> {
        let sess = self.session(id)?;
        Ok((sess.matched_prefix_tokens, sess.fastpath_prefix_tokens))
    }

    /// Policy statistics accumulated over every selection plan of a session,
    /// including the residency outcomes charged by the engine.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_stats(&self, id: SessionId) -> Result<PolicyStats, EngineError> {
        Ok(self.session(id)?.stats)
    }

    /// A session's tiered KV hierarchy (GPU resident set + CPU backing
    /// store), for inspection.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_cache(&self, id: SessionId) -> Result<&ClusterCache, EngineError> {
        Ok(&self.session(id)?.cache)
    }

    /// Modeled decode latency accumulated by a session so far (roofline
    /// device model; PCIe transfer charged only for cluster-cache misses).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn modeled_decode_time(&self, id: SessionId) -> Result<Seconds, EngineError> {
        Ok(self.session(id)?.modeled_decode)
    }

    /// GPU capacity of each session's cluster cache (0 = pure offload).
    pub fn kv_cache_capacity(&self) -> Bytes {
        self.kv_cache_capacity
    }

    /// Prefetch accounting of a session's staging buffer so far (staged /
    /// used / wasted bytes — all zero with prefetch disabled).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_prefetch_stats(&self, id: SessionId) -> Result<PrefetchStats, EngineError> {
        Ok(self.session(id)?.cache.prefetch_stats())
    }

    /// Modeled PCIe time of a session so far as `(hidden, total)`: the part
    /// the overlap clock hid behind compute, and the whole staged + demand
    /// transfer time (DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_transfer_times(&self, id: SessionId) -> Result<(Seconds, Seconds), EngineError> {
        let sess = self.session(id)?;
        Ok((sess.hidden_transfer, sess.transfer_time))
    }

    /// Heap bytes currently held by a session's per-head kernel workspaces
    /// (plus the layer concat and projection scratch). The buffers grow to
    /// the steady-state working set during the first decode steps and then
    /// stay fixed — the workspace-reuse test pins this, which is how the
    /// engine documents that its per-head attention phase performs no heap
    /// allocation in steady state (DESIGN.md §6).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn session_workspace_bytes(&self, id: SessionId) -> Result<usize, EngineError> {
        let sess = self.session(id)?;
        let per_head: usize = sess.workspaces.iter().map(|w| w.allocated_bytes()).sum();
        Ok(per_head
            + std::mem::size_of::<f32>()
                * (sess.concat.capacity() + sess.k_scratch.capacity() + sess.v_scratch.capacity()))
    }

    /// Cap on concurrently resident sessions.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Whether the engine was built with a default selection policy (i.e.
    /// [`create_session`](Self::create_session) works without an explicit
    /// factory).
    pub fn has_default_policy(&self) -> bool {
        self.policy.is_some()
    }

    /// The engine's analytical latency model (roofline pricing of prefill
    /// and decode steps on the configured device). The serving scheduler
    /// uses this to advance its modeled clock.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.model.latency
    }

    /// Enable tracing of a specific `(layer, head)` pair of a session. Must
    /// be called before decoding; tracing records exact attention weights,
    /// which is expensive but only for the traced heads.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn enable_trace(
        &mut self,
        id: SessionId,
        layer: usize,
        head: usize,
    ) -> Result<(), EngineError> {
        self.session_mut(id)?
            .traces
            .insert((layer, head), AttentionTrace::new(layer, head));
        Ok(())
    }

    /// Access a recorded trace of a session.
    pub fn trace(&self, id: SessionId, layer: usize, head: usize) -> Option<&AttentionTrace> {
        self.sessions
            .get(&id.0)
            .and_then(|s| s.traces.get(&(layer, head)))
    }

    /// Access the KV store of a `(layer, kv_head)` pair of a session (for
    /// tests and experiments).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] if the id is not resident.
    pub fn kv_store(
        &self,
        id: SessionId,
        layer: usize,
        kv_head: usize,
    ) -> Result<&KvStore, EngineError> {
        Ok(&self.session(id)?.kv[layer][kv_head])
    }

    /// Override the token fed to the session's next decode step (for
    /// externally sampled tokens; by default the engine continues greedily).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`] / [`EngineError::NotPrefilled`] /
    /// [`EngineError::TokenOutOfVocab`] (validated here so a later
    /// [`decode_batch`](Self::decode_batch) cannot fail mid-batch on a bad
    /// injected token).
    pub fn set_next_input(&mut self, id: SessionId, token: usize) -> Result<(), EngineError> {
        let vocab = self.model.config.vocab_size;
        let sess = self.session_mut(id)?;
        if sess.phase != SessionPhase::Ready {
            return Err(EngineError::NotPrefilled);
        }
        if token >= vocab {
            return Err(EngineError::TokenOutOfVocab { token, vocab });
        }
        sess.next_input = Some(token);
        Ok(())
    }

    fn kv_head_of(config: &ModelConfig, query_head: usize) -> usize {
        query_head / (config.num_heads / config.num_kv_heads)
    }

    /// Project a hidden vector through the per-head slice of a projection
    /// matrix `w` (whose rows are output channels) into a reusable buffer —
    /// one blocked matvec over the head's row range.
    fn project_head_into(
        w: &Matrix,
        hidden: &[f32],
        head: usize,
        head_dim: usize,
        out: &mut Vec<f32>,
    ) {
        matvec_rows_into(w, head * head_dim..(head + 1) * head_dim, hidden, out);
    }

    /// `w[..rows] · v` through the blocked kernel, row-chunk-parallel at a
    /// constant chunk size — thread-count invariant (DESIGN.md §6).
    fn par_rows_matvec(w: &Matrix, v: &[f32], rows: usize) -> Vec<f32> {
        clusterkv_tensor::kernels::par_matvec_rows(w, 0..rows, v, PROJ_MIN_ROWS_PER_WORKER)
    }

    /// Run one token of one session through the transformer. Prefill passes
    /// `decode: None` (full causal attention); a decode step passes its
    /// selection budget and prefetch configuration. Callers validate the
    /// token and the context fit upfront.
    fn forward_token(
        model: &Model,
        sess: &mut SessionState,
        token: usize,
        decode: Option<(Budget, PrefetchConfig)>,
    ) -> Vec<f32> {
        let Model {
            config,
            weights,
            rope,
            ..
        } = model;
        let position = sess.num_tokens;
        debug_assert!(position < config.max_context && token < config.vocab_size);
        let mut x = weights.embedding.row(token).to_vec();
        let head_dim = config.head_dim;
        let num_heads = config.num_heads;

        for layer in 0..config.num_layers {
            let lw = &weights.layers[layer];
            let h = rms_norm(&x, &lw.attn_norm, 1e-6);

            // KV projections for this layer (one per KV head), RoPE on keys.
            // Sequential on purpose: one projection is microseconds of work,
            // far below the cost of enlisting a worker. The projections land
            // in session-owned scratch, so no per-token buffers are built.
            for kv_head in 0..config.num_kv_heads {
                Self::project_head_into(&lw.wk, &h, kv_head, head_dim, &mut sess.k_scratch);
                Self::project_head_into(&lw.wv, &h, kv_head, head_dim, &mut sess.v_scratch);
                rope.apply(&mut sess.k_scratch, position);
                sess.kv[layer][kv_head].append(&sess.k_scratch, &sess.v_scratch);
            }

            // Attention, phase 1 (parallel across query heads): project the
            // query, plan the token set, attend. Each head owns its selector
            // plus a persistent kernel workspace and writes its output
            // straight into its disjoint slice of the layer's concat buffer
            // — pure, order-free compute with no allocation once the
            // workspace is warm. Heads fan out only once the context is long
            // enough for one head's attention to outweigh a spawn
            // (`min_len = num_heads` forces a single chunk below the
            // threshold).
            let head_min_len = if position >= HEAD_PAR_MIN_CONTEXT {
                1
            } else {
                num_heads
            };
            let kv_layer = &sess.kv[layer];
            let traces = &sess.traces;
            let compression = sess.cache.compression();
            sess.concat.clear();
            sess.concat.resize(num_heads * head_dim, 0.0);
            /// One head's unit of the parallel attention phase: its index,
            /// selector, persistent workspace and concat-buffer slice.
            type HeadWork<'a> = (
                usize,
                &'a mut Box<dyn TokenSelector>,
                &'a mut Workspace,
                &'a mut [f32],
            );
            let work: Vec<HeadWork<'_>> = sess.selectors[layer]
                .iter_mut()
                .zip(sess.workspaces.iter_mut())
                .zip(sess.concat.chunks_mut(head_dim))
                .enumerate()
                .map(|(head, ((selector, ws), slot))| (head, selector, ws, slot))
                .collect();
            let head_outcomes: Vec<HeadOutcome> = work
                .into_par_iter()
                .with_min_len(head_min_len)
                .map(|(head, selector, ws, slot)| {
                    Self::project_head_into(&lw.wq, &h, head, head_dim, &mut ws.q);
                    rope.apply(&mut ws.q, position);
                    let store = &kv_layer[Self::kv_head_of(config, head)];
                    let n = store.len();
                    let (selected, stats, pages, compressed_pages, hint) =
                        if let Some((budget, prefetch)) = decode {
                            let plan = selector.plan(SelectionRequest::new(&ws.q, n, budget));
                            // The lookahead nomination runs right after the plan,
                            // against the same query: a pure read re-ranking
                            // cluster centroids under a widened budget. Only the
                            // Lookahead predictor pays for it.
                            let hint = if prefetch.enabled()
                                && prefetch.predictor == PrefetchPredictor::Lookahead
                            {
                                selector.prefetch_hint(
                                    SelectionRequest::new(&ws.q, n, budget),
                                    prefetch.lookahead_tokens,
                                )
                            } else {
                                Vec::new()
                            };
                            let mut sel = plan.indices;
                            // The token being generated always attends to
                            // itself: its KV was just produced on the GPU and is
                            // not subject to selection (policies may not even
                            // have observed it yet).
                            if !sel.contains(&position) {
                                sel.push(position);
                            }
                            let (pages, cpages) = match plan.residency {
                                KvResidency::Paged(pages) => (Some(pages), None),
                                KvResidency::Compressed(cpages) => {
                                    let inner = cpages.iter().map(|p| p.request).collect();
                                    (Some(inner), Some(cpages))
                                }
                                KvResidency::Resident => (None, None),
                            };
                            (sel, Some(plan.stats), pages, cpages, hint)
                        } else {
                            // Prefill: full causal attention through the
                            // dedicated no-index-vec path (no `(0..n)` vector).
                            (Vec::new(), None, None, None, Vec::new())
                        };
                    if let Some(cpages) = &compressed_pages {
                        // Recall-compressed attention (DESIGN.md §9): attend
                        // through the merged + quantize-round-tripped KV of
                        // the plan's pages, exact KV elsewhere. Depends only
                        // on (config, page membership, stored values), so it
                        // is order-free across heads and thread counts.
                        let mut k_sel = store.keys().select_rows(&selected);
                        let mut v_sel = store.values().select_rows(&selected);
                        substitute_compressed(
                            store,
                            &selected,
                            cpages.iter().map(|p| p.members.as_slice()),
                            compression,
                            &mut k_sel,
                            &mut v_sel,
                        );
                        attend_into(&k_sel, &v_sel, None, &ws.q, &mut ws.weights, slot);
                    } else {
                        let indices = stats.as_ref().map(|_| selected.as_slice());
                        attend_into(
                            store.keys(),
                            store.values(),
                            indices,
                            &ws.q,
                            &mut ws.weights,
                            slot,
                        );
                    }
                    // The query is consumed after the parallel phase only by
                    // traced heads; everyone else skips the copy.
                    let query = if traces.contains_key(&(layer, head)) {
                        ws.q.clone()
                    } else {
                        Vec::new()
                    };
                    HeadOutcome {
                        selected,
                        stats,
                        pages,
                        compressed: compressed_pages.is_some(),
                        hint,
                        query,
                    }
                })
                .collect();

            // Attention, phase 2 (sequential, in head order): cluster-cache
            // accesses (whose LRU stamps are order-sensitive), stats
            // accumulation and traces consume the outcomes exactly as the
            // sequential engine did (outputs already sit in the concat
            // buffer, written by the parallel phase).
            for (head, mut outcome) in head_outcomes.into_iter().enumerate() {
                if let Some(mut stats) = outcome.stats.take() {
                    // Residency: resolve the plan's page requests against the
                    // session's cluster cache; only misses cross PCIe.
                    if let Some(pages) = &outcome.pages {
                        let access = sess.cache.access(LayerId(layer), HeadId(head), pages);
                        stats.charge_recall(&access);
                        if outcome.compressed {
                            // Compressed recalls move quantized pages; the
                            // cache reports their exact byte count, which
                            // the latency model prices directly.
                            sess.step.transferred_compressed_bytes += access.bytes_recalled.get();
                            sess.step.promoted_compressed_bytes += access.staged_bytes.get();
                        } else {
                            sess.step.transferred += access.missed_tokens;
                            sess.step.promoted_tokens += access.staged_tokens;
                        }
                    }
                    // Nominate next-step pages for the end-of-step staging
                    // pass: every predictor re-nominates the pages this step
                    // selected (semantic locality), Lookahead adds its
                    // widened-budget hint. Pushed in (layer, head) order by
                    // this sequential phase, so the staging order — and
                    // hence every staging-LRU stamp — is deterministic.
                    if decode.is_some_and(|(_, prefetch)| prefetch.enabled()) {
                        if let Some(pages) = outcome.pages.take() {
                            sess.nominations.push((layer, head, pages));
                        }
                        if !outcome.hint.is_empty() {
                            let hint = std::mem::take(&mut outcome.hint);
                            sess.nominations.push((layer, head, hint));
                        }
                    }
                    sess.stats.merge(&stats);
                    if layer >= config.dense_layers {
                        sess.step.scored += stats.scored_vectors;
                        sess.step.attended += outcome.selected.len() as u64;
                    }
                    if let Some(trace) = sess.traces.get_mut(&(layer, head)) {
                        let store = &sess.kv[layer][Self::kv_head_of(config, head)];
                        trace.push(TraceStep {
                            position,
                            full_weights: full_attention_weights(store, &outcome.query),
                            selected: outcome.selected.clone(),
                        });
                    }
                }
            }

            // Output projection and residual (row-parallel).
            let attn_out = Self::par_rows_matvec(&lw.wo, &sess.concat, config.hidden_dim());
            for (xi, ai) in x.iter_mut().zip(&attn_out) {
                *xi += ai;
            }

            // FFN with SiLU gating and residual (row-parallel).
            let h2 = rms_norm(&x, &lw.ffn_norm, 1e-6);
            let mut gate = Self::par_rows_matvec(&lw.w_gate, &h2, config.ffn_dim);
            for g in gate.iter_mut() {
                *g = silu(*g);
            }
            let up = Self::par_rows_matvec(&lw.w_up, &h2, config.ffn_dim);
            let gated: Vec<f32> = gate.iter().zip(&up).map(|(g, u)| g * u).collect();
            let down = Self::par_rows_matvec(&lw.w_down, &gated, config.hidden_dim());
            for (xd, dd) in x.iter_mut().zip(&down) {
                *xd += dd;
            }
        }

        sess.num_tokens += 1;
        rms_norm(&x, &weights.final_norm, 1e-6)
    }

    /// Admit pages whose KV was just produced on the GPU (prefill
    /// clustering, incremental decode clustering) into the session's cluster
    /// cache while capacity allows, and grow the CPU backing store to the
    /// full KV size.
    fn settle_session_memory(config: &ModelConfig, sess: &mut SessionState) {
        if sess.cache.enabled() {
            for layer in config.dense_layers..config.num_layers {
                for head in 0..config.num_heads {
                    // Once a head's KV is offloaded the decision is permanent
                    // — skip building its page table again every step.
                    if sess.cache.is_offloaded(LayerId(layer), HeadId(head)) {
                        continue;
                    }
                    // Both paged and recall-compressed tables warm the same
                    // way: admission is always exact, demotion to the
                    // compressed tier happens under eviction pressure.
                    if let Some(pages) = sess.selectors[layer][head].page_table().page_requests() {
                        sess.cache.warm(LayerId(layer), HeadId(head), &pages);
                    }
                }
            }
        }
        // Shared-prefix positions live in the workspace-global store and are
        // charged there exactly once; the session's backing store only pays
        // for its private rows (novel prompt suffix + generated tokens).
        // Without a prefix store `matched_prefix_tokens` is 0 and this is
        // the plain full-context charge.
        let private = sess.num_tokens - sess.matched_prefix_tokens;
        let total = Bytes(private as u64 * config.kv_bytes_per_token());
        sess.cache
            .set_backing(total)
            .expect("host DRAM exhausted by simulated KV");
    }

    /// Fan an observe event out across every selective `(layer, head)`
    /// selector of a session. The closure receives the selector's layer
    /// offset (0 = first selective layer) and the head index, and must be
    /// order-free: selectors are independent, so the fan-out runs
    /// data-parallel (DESIGN.md §4).
    fn observe_selective<F>(config: &ModelConfig, sess: &mut SessionState, observe: F)
    where
        F: Fn(usize, usize, &mut Box<dyn TokenSelector>) + Sync,
    {
        sess.selectors[config.dense_layers..]
            .iter_mut()
            .enumerate()
            .flat_map(|(li, heads)| {
                heads
                    .iter_mut()
                    .enumerate()
                    .map(move |(head, sel)| (li, head, sel))
            })
            .collect::<Vec<_>>()
            .into_par_iter()
            .with_min_len(1)
            .for_each(|(li, head, sel)| observe(li, head, sel));
    }

    /// Forward one contiguous chunk of a session's prompt with full causal
    /// attention, letting every selective head's selector observe the
    /// chunk's keys ([`ObserveEvent::PrefillChunk`]). Returns the final
    /// hidden state of the chunk's last token.
    ///
    /// Chunks are resumable: a prompt may arrive over any number of calls
    /// (the serving scheduler interleaves the chunks of one session with
    /// other sessions' decode steps), and the session becomes decodable only
    /// after [`finish_prefill`](Self::finish_prefill). Decode token streams,
    /// selector statistics and cache accounting are byte-identical whatever
    /// the chunking — including the monolithic [`prefill`](Self::prefill),
    /// which is a wrapper over this path.
    ///
    /// Each call validates its whole chunk upfront (vocabulary, context
    /// fit), so a failed call forwards nothing and the session keeps
    /// accepting corrected chunks.
    ///
    /// When the engine has a [`PrefixStore`], the chunk first walks the
    /// store: prompt positions covered by shared pages have their KV (and
    /// key-norm caches) bulk-copied instead of recomputed, and only the
    /// novel suffix runs the forward pass. The last token of every chunk is
    /// always forwarded so the returned hidden state is exact. Shared pages
    /// are immutable; the session's own stores are its private copy, so
    /// decode appends never write back (copy-on-write at the materialize
    /// boundary, DESIGN.md §8).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`], [`EngineError::PrefillSealed`]
    /// (the session already finished prefill), [`EngineError::EmptyChunk`],
    /// [`EngineError::TokenOutOfVocab`] or [`EngineError::ContextOverflow`].
    pub fn prefill_chunk(
        &mut self,
        id: SessionId,
        chunk: &[usize],
    ) -> Result<Vec<f32>, EngineError> {
        let Self {
            model,
            sessions,
            prefix,
            injector,
            ..
        } = self;
        let config = &model.config;
        let sess = sessions
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownSession(id))?;
        if sess.phase == SessionPhase::Ready {
            return Err(EngineError::PrefillSealed);
        }
        if chunk.is_empty() {
            return Err(EngineError::EmptyChunk);
        }
        // Validate the whole chunk upfront: a chunk that errored halfway
        // through would otherwise leave partial KV entries behind while the
        // session still accepts a retry, silently shifting every position of
        // the retried tokens.
        if sess.num_tokens + chunk.len() > config.max_context {
            return Err(EngineError::ContextOverflow {
                requested: sess.num_tokens + chunk.len(),
                max: config.max_context,
            });
        }
        if let Some(&token) = chunk.iter().find(|&&t| t >= config.vocab_size) {
            return Err(EngineError::TokenOutOfVocab {
                token,
                vocab: config.vocab_size,
            });
        }
        let start = sess.num_tokens;
        // The chunk's length is known: reserve every store once instead of
        // growing per token.
        for layer_kv in sess.kv.iter_mut() {
            for store in layer_kv.iter_mut() {
                store.reserve(chunk.len());
            }
        }
        // Prefix fast path: positions the store already holds get their KV
        // rows (and key-norm caches) bulk-copied from shared pages; only the
        // novel suffix is forwarded. The walk is capped one token short of
        // the buffered prompt so the chunk's last token is always forwarded
        // and the returned hidden state stays exact. Copied rows are bitwise
        // what the forward pass would produce (deterministic kernels,
        // absolute-position RoPE), so everything downstream — selector
        // observes, decode, parity — is byte-identical to a cold prefill.
        let mut fast = 0;
        if let Some(store) = prefix {
            sess.prompt_tokens.extend_from_slice(chunk);
            if sess.prefix_active {
                let cap = sess.prompt_tokens.len() - 1;
                let (matched, segments) = store.match_from(start, &sess.prompt_tokens[..cap]);
                if matched > start {
                    fast = matched - start;
                    for (layer, layer_kv) in sess.kv.iter_mut().enumerate() {
                        for (kv_head, kv) in layer_kv.iter_mut().enumerate() {
                            for seg in &segments {
                                // Integrity gate (DESIGN.md §11): the page's
                                // seal is checked before its rows are
                                // adopted; a damaged seal is repaired from
                                // the pristine rows (recompute + re-donate)
                                // so adoption never propagates corruption.
                                let key = (seg.node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                    ^ ((layer as u64) << 32)
                                    ^ ((kv_head as u64) << 16)
                                    ^ id.raw();
                                if injector.should_corrupt(FaultSite::PrefixAdoption, key)
                                    && store.corrupt_page(seg.node, layer, kv_head)
                                {
                                    sess.integrity.record_injected();
                                }
                                match store.verify_page(seg.node, layer, kv_head) {
                                    Some(true) => sess.integrity.record_verified(),
                                    Some(false) => {
                                        sess.integrity.record_verified();
                                        sess.integrity.record_detected();
                                        if let Some(bytes) =
                                            store.repair_page(seg.node, layer, kv_head)
                                        {
                                            sess.integrity.record_repaired(bytes.get());
                                        }
                                    }
                                    None => {}
                                }
                                let page = store.page(seg.node, layer, kv_head);
                                kv.append_shared(
                                    &page.keys,
                                    &page.values,
                                    &page.key_norms,
                                    seg.rows.0,
                                    seg.rows.1,
                                );
                            }
                        }
                    }
                    sess.num_tokens += fast;
                    sess.fastpath_prefix_tokens += fast;
                }
                sess.matched_prefix_tokens = sess.matched_prefix_tokens.max(matched);
                if matched < cap {
                    // First divergence: every later position is novel, so
                    // stop walking the tree for this session.
                    sess.prefix_active = false;
                }
            }
        }
        let mut last = Vec::new();
        for &token in &chunk[fast..] {
            last = Self::forward_token(model, sess, token, None);
        }
        // Notify selectors of the chunk's keys (per query head, sharing one
        // copy of the associated KV head's chunk rows across its query-head
        // group). Selectors are independent, making the observes order-free;
        // policies whose prefill pass is global (ClusterKV's clustering,
        // InfiniGen's SVD) buffer here and reconcile on `PrefillDone`.
        let group = config.num_heads / config.num_kv_heads;
        let end = sess.num_tokens;
        let keys_per_layer: Vec<Vec<Matrix>> = (config.dense_layers..config.num_layers)
            .map(|layer| {
                (0..config.num_kv_heads)
                    .map(|kv_head| sess.kv[layer][kv_head].keys().slice_rows(start, end))
                    .collect()
            })
            .collect();
        Self::observe_selective(config, sess, |li, head, sel| {
            sel.observe(ObserveEvent::PrefillChunk {
                start,
                keys: &keys_per_layer[li][head / group],
            });
        });
        sess.phase = SessionPhase::Prefilling;
        sess.next_input = Some(*chunk.last().expect("chunk checked non-empty"));
        Ok(last)
    }

    /// Seal a chunked prefill: selectors reconcile their prompt state
    /// ([`ObserveEvent::PrefillDone`] — this is where ClusterKV's semantic
    /// clustering runs, Fig. 5 step 1, the heaviest per-head work of a
    /// session's lifetime), the prefill KV settles into the tiered memory
    /// hierarchy, and the session becomes decodable (its next decode input
    /// is the last prompt token).
    ///
    /// With a [`PrefixStore`], sealing also donates the session's prompt KV
    /// into the tree (refcounted, pinned until release) and reconciles
    /// selector state: the first session to seal a prompt exports its
    /// post-clustering state to the terminal node, and later sessions adopt
    /// it — skipping the k-means entirely — when the fingerprint and token
    /// count line up.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`], [`EngineError::AlreadyPrefilled`]
    /// (already sealed) or [`EngineError::EmptyPrompt`] (no chunks were
    /// forwarded).
    pub fn finish_prefill(&mut self, id: SessionId) -> Result<(), EngineError> {
        let Self {
            model,
            sessions,
            prefix,
            ..
        } = self;
        let config = &model.config;
        let sess = sessions
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownSession(id))?;
        match sess.phase {
            SessionPhase::Ready => return Err(EngineError::AlreadyPrefilled),
            SessionPhase::Fresh => return Err(EngineError::EmptyPrompt),
            SessionPhase::Prefilling => {}
        }
        let total_tokens = sess.num_tokens;
        let mut terminal = None;
        if let Some(store) = prefix {
            debug_assert_eq!(sess.prompt_tokens.len(), total_tokens);
            if sess.prefix_active {
                // Retroactively credit the chunk-last tokens the fast path
                // recomputed: they are store-backed even though they were
                // forwarded, so they belong to the shared byte accounting.
                let (matched, _) = store.match_from(total_tokens, &sess.prompt_tokens);
                sess.matched_prefix_tokens = sess.matched_prefix_tokens.max(matched);
            }
            // Donate the prompt KV (pages are slices of this session's own
            // stores, so re-donating a known prompt adds zero bytes) and
            // swap the admission pin, if any, for the full-prompt pin that
            // `insert` takes on our behalf.
            let node = store.insert(&sess.prompt_tokens, &sess.kv);
            let old_pin = std::mem::replace(&mut sess.pinned_prompt, sess.prompt_tokens.clone());
            if !old_pin.is_empty() {
                store.unpin_prompt(&old_pin);
            }
            terminal = Some(node);
        }
        let adopt_from = terminal.and_then(|node| {
            prefix
                .as_ref()
                .filter(|store| store.has_selector_states(node))
                .map(|store| (store, node))
        });
        let dense = config.dense_layers;
        Self::observe_selective(config, sess, |li, head, sel| {
            if let Some((store, node)) = adopt_from {
                if let Some(state) = store.selector_state(node, li + dense, head) {
                    if sel.adopt_prefill_state(state, total_tokens) {
                        return;
                    }
                }
            }
            sel.observe(ObserveEvent::PrefillDone { total_tokens });
        });
        if let Some(node) = terminal {
            let store = prefix.as_mut().expect("terminal implies a store");
            if !store.has_selector_states(node) {
                // First session to seal this exact prompt: export each
                // selective head's post-reconcile state so later sessions
                // skip the clustering work.
                for (li, heads) in sess.selectors[dense..].iter().enumerate() {
                    for (head, sel) in heads.iter().enumerate() {
                        if let Some(state) = sel.export_prefill_state() {
                            store.cache_selector_state(node, li + dense, head, state);
                        }
                    }
                }
            }
        }
        // The prefill KV was produced on the GPU: pages stay resident while
        // cache capacity allows, the rest is offloaded to the backing store.
        Self::settle_session_memory(config, sess);
        sess.phase = SessionPhase::Ready;
        Ok(())
    }

    /// Process a session's whole prompt with full causal attention, then hand
    /// each head's prefill keys to its selector. Returns the final hidden
    /// state of the last prompt token and arms the session for decoding
    /// (its next decode input is the last prompt token).
    ///
    /// This is the monolithic wrapper over the resumable
    /// [`prefill_chunk`](Self::prefill_chunk) / [`finish_prefill`]
    /// path: one chunk covering the whole prompt, then the seal. Outputs are
    /// byte-identical to any other chunking of the same prompt.
    ///
    /// [`finish_prefill`]: Self::finish_prefill
    ///
    /// # Errors
    ///
    /// Returns an error for unknown sessions, repeated or in-progress
    /// prefills, empty prompts, out-of-vocabulary tokens or context
    /// overflow.
    pub fn prefill(&mut self, id: SessionId, prompt: &[usize]) -> Result<Vec<f32>, EngineError> {
        // Reject a session mid-chunked-prefill (silently appending the whole
        // prompt after partial chunks is never what the caller meant) or
        // already sealed. Checked here, not via `prefill_chunk`, to keep this
        // monolithic API's historical error contract: `AlreadyPrefilled` and
        // `EmptyPrompt`, where the chunked path reports the finer-grained
        // `PrefillSealed` and `EmptyChunk`.
        if self.session(id)?.phase != SessionPhase::Fresh {
            return Err(EngineError::AlreadyPrefilled);
        }
        if prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let last = self.prefill_chunk(id, prompt)?;
        self.finish_prefill(id)?;
        Ok(last)
    }

    /// Advance one session by one decoding step, in a fixed stage order:
    /// forward → observe → settle → stage → faults → price → logits. The
    /// stage and faults steps run only when prefetch and fault injection are
    /// enabled. [`decode_batch`](Self::decode_batch) validated the session
    /// upfront; this is free of `&mut self` so disjoint sessions can run on
    /// different threads against the shared, read-only [`Model`].
    fn decode_one(
        model: &Model,
        budget: Budget,
        prefetch: PrefetchConfig,
        injector: FaultInjector,
        id: SessionId,
        sess: &mut SessionState,
    ) -> DecodeOutput {
        let config = &model.config;
        let token = sess
            .next_input
            .expect("decode_batch validated the pending input");
        let position = sess.num_tokens;
        sess.step = StepAccounting::default();
        let hidden = Self::forward_token(model, sess, token, Some((budget, prefetch)));

        // Notify selectors of the new keys appended at `position`, one key
        // snapshot per KV head. Incremental clustering (ClusterKV's periodic
        // k-means over the decode buffer) runs inside these observes.
        let group = config.num_heads / config.num_kv_heads;
        let key_per_layer: Vec<Vec<Vec<f32>>> = (config.dense_layers..config.num_layers)
            .map(|layer| {
                (0..config.num_kv_heads)
                    .map(|kv_head| sess.kv[layer][kv_head].key(position).to_vec())
                    .collect()
            })
            .collect();
        Self::observe_selective(config, sess, |li, head, sel| {
            sel.observe(ObserveEvent::Append {
                position,
                key: &key_per_layer[li][head / group],
            });
        });
        // New KV (and any freshly created clusters) was produced on-device:
        // settle what stays resident before staging, so freshly admitted
        // pages are already resident (stage() skips them).
        Self::settle_session_memory(config, sess);
        if prefetch.enabled() {
            Self::stage(prefetch.step_bytes, sess);
        }
        if injector.enabled() {
            Self::inject_faults(config, injector, id, position, sess);
        }
        Self::price(model, prefetch.enabled() && prefetch.overlap, sess);

        // Tied-embedding logits (blocked matvec, row-chunk-parallel over the
        // vocabulary).
        let logits = Self::par_rows_matvec(&model.weights.embedding, &hidden, config.vocab_size);
        let next_token = argmax(&logits).unwrap_or(0);
        sess.generated_tokens += 1;
        sess.next_input = Some(next_token);
        DecodeOutput {
            session: id,
            next_token,
            logits,
            hidden,
        }
    }

    /// Stage this step's nominations for the next step, at most `step_bytes`
    /// in total. Drains the nominations in the (layer, head) order phase 2
    /// pushed them, so staging-LRU stamps are deterministic at any thread
    /// count.
    fn stage(step_bytes: Bytes, sess: &mut SessionState) {
        let mut budget_left = step_bytes;
        for (layer, head, pages) in sess.nominations.drain(..) {
            if budget_left.get() == 0 {
                continue; // keep draining so no stale nominations survive
            }
            let moved = sess
                .cache
                .stage(LayerId(layer), HeadId(head), &pages, budget_left);
            sess.step.staged_bytes += moved.get();
            budget_left = Bytes(budget_left.get() - moved.get());
        }
    }

    /// Deterministic fault injection for one decode step (DESIGN.md §11).
    /// Every decision is a pure function of (plan seed, site, session id,
    /// position), so the schedule is bit-identical across runs, chunkings
    /// and thread counts. Faults only add modeled time (retried bytes,
    /// backoff) and checksum churn; the KV payloads a step attends are
    /// untouched, so token streams match the faults-off run byte for byte.
    fn inject_faults(
        config: &ModelConfig,
        injector: FaultInjector,
        id: SessionId,
        position: usize,
        sess: &mut SessionState,
    ) {
        let step_key = id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ position as u64;
        // Modeled transfer failures: this step's demand recall is re-sent
        // (attempts - 1) extra times, each preceded by an exponential-backoff
        // wait charged to the modeled clock.
        let demand_bytes = sess.step.transferred * (4 * config.head_dim) as u64
            + sess.step.transferred_compressed_bytes;
        if demand_bytes > 0 {
            let attempts = injector.transfer_attempts(FaultSite::DemandRecall, step_key);
            if attempts > 1 {
                let retries = u64::from(attempts - 1);
                let retried = retries * demand_bytes;
                let backoff = backoff_seconds(injector.plan().backoff_base, attempts);
                sess.step.retried_bytes += retried;
                sess.step.backoff_seconds += backoff;
                sess.integrity.record_retries(retries, retried, backoff);
            }
        }
        // Checksum corruption of a resident page, scrubbed in the same step:
        // detection re-seals the tag from the pristine backing rows and the
        // re-fetch is charged as retried demand traffic.
        if injector.should_corrupt(FaultSite::DemandRecall, step_key)
            && sess.cache.corrupt_resident_page(step_key)
        {
            let repaired = sess.cache.scrub();
            sess.step.retried_bytes += repaired.get();
        }
    }

    /// Price the step just run onto the session's modeled clocks: the one
    /// place a step's [`StepAccounting`] becomes a [`StepCost`]. With the
    /// `overlap` clock, miss tokens promoted out of the staging buffer leave
    /// the demand term (their transfer was charged, overlapped, by the step
    /// that staged them) and this step's staged bytes enter the overlap
    /// term. Without overlap the raw totals reproduce the pure-sum clock bit
    /// for bit.
    fn price(model: &Model, overlap: bool, sess: &mut SessionState) {
        let step = sess.step;
        let (transferred, compressed_bytes, staged_bytes) = if overlap {
            (
                step.transferred - step.promoted_tokens,
                step.transferred_compressed_bytes - step.promoted_compressed_bytes,
                step.staged_bytes,
            )
        } else {
            (step.transferred, step.transferred_compressed_bytes, 0)
        };
        let cost = StepCost::from_step_totals(
            &model.config,
            step.scored,
            step.attended,
            transferred,
            compressed_bytes,
            staged_bytes,
        )
        .with_retries(step.retried_bytes, step.backoff_seconds);
        let breakdown = model.latency.decode_step_breakdown(sess.num_tokens, &cost);
        sess.modeled_decode += breakdown.total;
        sess.hidden_transfer += breakdown.hidden();
        sess.transfer_time += breakdown.staged + breakdown.demand;
    }

    /// Run one decoding step for a session with an explicit input token
    /// (typically the previously generated token).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSession`], [`EngineError::NotPrefilled`], plus
    /// vocabulary / context errors.
    pub fn decode_step(
        &mut self,
        id: SessionId,
        token: usize,
    ) -> Result<DecodeOutput, EngineError> {
        self.set_next_input(id, token)?;
        Ok(self.decode_batch(&[id])?.remove(0))
    }

    /// Advance every listed session by one decoding step, each consuming its
    /// own pending input token (the last prompt token right after prefill,
    /// afterwards its previously generated token unless overridden via
    /// [`set_next_input`](Self::set_next_input)).
    ///
    /// The batch's **distinct sessions fan out across the thread pool**
    /// (`RAYON_NUM_THREADS` workers): sessions are fully isolated, so the
    /// outputs are byte-identical to calling
    /// [`decode_step`](Self::decode_step) on each session separately, at any
    /// thread count — the serving parity suite enforces this. A session may
    /// appear multiple times, advancing multiple steps; its steps run
    /// sequentially on one worker, in batch order. Outputs are returned in
    /// the order of `ids`, exactly as the sequential engine produced them.
    ///
    /// # Errors
    ///
    /// Validates every id upfront — [`EngineError::UnknownSession`],
    /// [`EngineError::NotPrefilled`], and [`EngineError::ContextOverflow`]
    /// (counting repeated ids) are all reported before any session is
    /// advanced, so a failed batch performs no work.
    pub fn decode_batch(&mut self, ids: &[SessionId]) -> Result<Vec<DecodeOutput>, EngineError> {
        let mut steps_per_id: BTreeMap<u64, usize> = BTreeMap::new();
        for &id in ids {
            let sess = self.session(id)?;
            if sess.phase != SessionPhase::Ready || sess.next_input.is_none() {
                return Err(EngineError::NotPrefilled);
            }
            let steps = steps_per_id.entry(id.0).or_insert(0);
            *steps += 1;
            // Input tokens are validated on entry (argmax continuations and
            // `set_next_input` both stay inside the vocabulary), so the only
            // way a step can fail after this point is running out of context.
            if sess.num_tokens + *steps > self.model.config.max_context {
                return Err(EngineError::ContextOverflow {
                    requested: sess.num_tokens + *steps,
                    max: self.model.config.max_context,
                });
            }
        }

        // Group the batch by session: each distinct session becomes one unit
        // of work carrying the output slots its steps fill.
        let mut slots_per_id: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (slot, &id) in ids.iter().enumerate() {
            slots_per_id.entry(id.0).or_default().push(slot);
        }
        let Self {
            model,
            budget,
            prefetch,
            sessions,
            injector,
            ..
        } = self;
        let (budget, prefetch, injector) = (*budget, *prefetch, *injector);
        // The session table is a BTreeMap, so the work list (and thus chunk
        // assignment) is id-ordered structurally — no post-hoc sort needed.
        let work: Vec<(u64, Vec<usize>, &mut SessionState)> = sessions
            .iter_mut()
            .filter_map(|(&raw, sess)| slots_per_id.remove(&raw).map(|slots| (raw, slots, sess)))
            .collect();

        // Fan distinct sessions across the pool; inside one unit the steps
        // run in batch order. The model is shared immutably; all mutable
        // state is per-session and moves into exactly one unit.
        let per_session: Vec<Vec<(usize, DecodeOutput)>> = work
            .into_par_iter()
            .with_min_len(1)
            .map(|(raw, slots, sess)| {
                let id = SessionId(raw);
                slots
                    .into_iter()
                    .map(|slot| {
                        let out = Self::decode_one(model, budget, prefetch, injector, id, sess);
                        (slot, out)
                    })
                    .collect()
            })
            .collect();

        // Gather the per-session outputs back into batch order (every slot
        // is produced by exactly one session unit).
        let mut outs: Vec<(usize, DecodeOutput)> = per_session.into_iter().flatten().collect();
        outs.sort_unstable_by_key(|&(slot, _)| slot);
        Ok(outs.into_iter().map(|(_, out)| out).collect())
    }

    /// Greedily generate `steps` tokens for a session after prefilling it
    /// with `prompt`, returning the generated token ids.
    ///
    /// This stays a direct single-session driver rather than a client of the
    /// `clusterkv-sched` scheduler: it is the "one sequence, run it to the
    /// end" convenience path, with no queueing, admission or modeled clock
    /// to consult — routing it through a one-request scheduler would add a
    /// policy layer that cannot change any output. Multi-request serving
    /// (arrivals, chunked prefill interleaved with decode, latency
    /// accounting) belongs to `clusterkv_sched::Scheduler`, which drives the
    /// same [`prefill_chunk`](Self::prefill_chunk) /
    /// [`decode_batch`](Self::decode_batch) primitives.
    ///
    /// The whole generation is validated upfront (`prompt.len() + steps`
    /// must fit the context window): either the call succeeds in full, or it
    /// fails before forwarding anything — an error never leaves the session
    /// half-advanced with some tokens generated but none returned.
    ///
    /// # Errors
    ///
    /// [`EngineError::ContextOverflow`] if the prompt plus every requested
    /// step cannot fit `max_context`, reported before any work; otherwise
    /// propagates the validation errors of [`prefill`](Self::prefill).
    pub fn generate(
        &mut self,
        id: SessionId,
        prompt: &[usize],
        steps: usize,
    ) -> Result<Vec<usize>, EngineError> {
        // Validate the decode phase upfront. Decode inputs are always
        // in-vocabulary (greedy argmax continuations), so the only way a
        // step could fail after prefill succeeded is running out of context
        // — which would discard the tokens already generated. Checking the
        // full span here makes mid-generation failure impossible.
        let start = self.session(id)?.num_tokens;
        let requested = start + prompt.len() + steps;
        if requested > self.model.config.max_context {
            return Err(EngineError::ContextOverflow {
                requested,
                max: self.model.config.max_context,
            });
        }
        self.prefill(id, prompt)?;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            out.push(self.decode_batch(&[id])?[0].next_token);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        CompressedPageRequest, FullAttentionFactory, OracleTopKFactory, SelectionPlan,
    };

    fn tiny_serve(budget: usize) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(budget))
            .policy(Box::new(OracleTopKFactory))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_config() {
        let mut bad = ModelConfig::tiny();
        bad.num_heads = 3;
        bad.num_kv_heads = 2;
        assert!(matches!(
            ServeEngine::builder(bad).build().unwrap_err(),
            EngineError::InvalidConfig(_)
        ));
    }

    #[test]
    fn create_without_policy_errors() {
        let mut eng = ServeEngine::builder(ModelConfig::tiny()).build().unwrap();
        assert_eq!(
            eng.create_session().unwrap_err(),
            EngineError::MissingPolicy
        );
        // An explicit factory still works.
        assert!(eng.create_session_with(&FullAttentionFactory).is_ok());
    }

    #[test]
    fn session_lifecycle_and_ids() {
        let mut eng = tiny_serve(64);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        assert_ne!(a, b);
        assert_eq!(eng.num_sessions(), 2);
        assert_eq!(eng.session_ids(), vec![a, b]);
        eng.generate(a, &[1, 2, 3], 2).unwrap();
        let report = eng.release(a).unwrap();
        assert_eq!(report.id, a);
        assert_eq!(report.context_len, 5);
        assert_eq!(report.generated_tokens, 2);
        assert_eq!(eng.num_sessions(), 1);
        assert_eq!(
            eng.release(a).unwrap_err(),
            EngineError::UnknownSession(a),
            "double release is reported"
        );
    }

    #[test]
    fn session_limit_is_enforced() {
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .policy(Box::new(FullAttentionFactory))
            .max_sessions(2)
            .build()
            .unwrap();
        eng.create_session().unwrap();
        eng.create_session().unwrap();
        assert_eq!(
            eng.create_session().unwrap_err(),
            EngineError::SessionLimitReached { max: 2 }
        );
        let ids = eng.session_ids();
        eng.release(ids[0]).unwrap();
        assert!(eng.create_session().is_ok(), "capacity is reclaimed");
    }

    #[test]
    fn prefill_guards() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        assert_eq!(eng.prefill(s, &[]).unwrap_err(), EngineError::EmptyPrompt);
        eng.prefill(s, &[1, 2, 3]).unwrap();
        assert_eq!(
            eng.prefill(s, &[4]).unwrap_err(),
            EngineError::AlreadyPrefilled
        );
        let ghost = SessionId(999);
        assert_eq!(
            eng.prefill(ghost, &[1]).unwrap_err(),
            EngineError::UnknownSession(ghost)
        );
    }

    #[test]
    fn chunked_prefill_matches_monolithic() {
        let prompt: Vec<usize> = (0..25).map(|i| (i * 5 + 2) % 128).collect();
        let mut mono = tiny_serve(8);
        let sm = mono.create_session().unwrap();
        let mono_hidden = mono.prefill(sm, &prompt).unwrap();
        let mono_stream: Vec<usize> = (0..6)
            .map(|_| mono.decode_batch(&[sm]).unwrap()[0].next_token)
            .collect();

        for chunk_size in [1usize, 3, 7, prompt.len()] {
            let mut eng = tiny_serve(8);
            let s = eng.create_session().unwrap();
            let mut last = Vec::new();
            for chunk in prompt.chunks(chunk_size) {
                last = eng.prefill_chunk(s, chunk).unwrap();
            }
            eng.finish_prefill(s).unwrap();
            assert_eq!(last, mono_hidden, "chunk {chunk_size}: hidden diverged");
            let stream: Vec<usize> = (0..6)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            assert_eq!(stream, mono_stream, "chunk {chunk_size}: stream diverged");
            assert_eq!(
                eng.session_stats(s).unwrap(),
                mono.session_stats(sm).unwrap(),
                "chunk {chunk_size}: stats diverged"
            );
        }
    }

    #[test]
    fn chunked_prefill_lifecycle_guards() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        // Nothing fed yet: the prompt cannot be sealed and decode is barred.
        assert_eq!(eng.finish_prefill(s).unwrap_err(), EngineError::EmptyPrompt);
        assert_eq!(
            eng.decode_batch(&[s]).unwrap_err(),
            EngineError::NotPrefilled
        );
        eng.prefill_chunk(s, &[1, 2, 3]).unwrap();
        // Mid-prefill: still not decodable, and the monolithic entry point
        // refuses to splice a whole prompt after partial chunks.
        assert_eq!(
            eng.decode_batch(&[s]).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(
            eng.set_next_input(s, 1).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(
            eng.prefill(s, &[4, 5]).unwrap_err(),
            EngineError::AlreadyPrefilled
        );
        // An empty chunk is a caller bug, named as such — not EmptyPrompt,
        // which is about sealing a session that never fed any chunk.
        assert_eq!(
            eng.prefill_chunk(s, &[]).unwrap_err(),
            EngineError::EmptyChunk
        );
        eng.prefill_chunk(s, &[4, 5]).unwrap();
        eng.finish_prefill(s).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 5);
        // Sealed: further chunks get the dedicated error (the session's
        // phase silently advancing would corrupt positions), no double seal.
        assert_eq!(
            eng.prefill_chunk(s, &[6]).unwrap_err(),
            EngineError::PrefillSealed
        );
        assert_eq!(
            eng.finish_prefill(s).unwrap_err(),
            EngineError::AlreadyPrefilled
        );
        eng.decode_batch(&[s]).unwrap();
        let ghost = SessionId(999);
        assert_eq!(
            eng.prefill_chunk(ghost, &[1]).unwrap_err(),
            EngineError::UnknownSession(ghost)
        );
        assert_eq!(
            eng.finish_prefill(ghost).unwrap_err(),
            EngineError::UnknownSession(ghost)
        );
    }

    #[test]
    fn failed_chunk_is_atomic_and_resumable() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill_chunk(s, &[1, 2]).unwrap();
        let err = eng.prefill_chunk(s, &[3, 9999]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TokenOutOfVocab { token: 9999, .. }
        ));
        // The failed chunk forwarded nothing; a corrected chunk resumes.
        assert_eq!(eng.context_len(s).unwrap(), 2);
        eng.prefill_chunk(s, &[3, 4]).unwrap();
        eng.finish_prefill(s).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 4);
        assert_eq!(eng.kv_store(s, 0, 0).unwrap().len(), 4);
    }

    #[test]
    fn generate_validates_the_whole_run_upfront() {
        let mut cfg = ModelConfig::tiny();
        cfg.max_context = 6;
        let mut eng = ServeEngine::builder(cfg)
            .synthetic_weights(7)
            .budget(Budget::new(64))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        // 4 prompt + 3 steps > 6: rejected before any work, so the session
        // is untouched (no partially generated tokens are ever discarded).
        let err = eng.generate(s, &[1, 2, 3, 4], 3).unwrap_err();
        assert_eq!(
            err,
            EngineError::ContextOverflow {
                requested: 7,
                max: 6
            }
        );
        assert_eq!(eng.context_len(s).unwrap(), 0, "nothing was advanced");
        // The same session then runs the fitting request in full.
        assert_eq!(eng.generate(s, &[1, 2, 3, 4], 2).unwrap().len(), 2);
    }

    #[test]
    fn failed_prefill_leaves_no_partial_state() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        // Token 9999 is out of vocabulary: the whole prefill must be
        // rejected before any KV is appended...
        let err = eng.prefill(s, &[1, 2, 9999, 4]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TokenOutOfVocab { token: 9999, .. }
        ));
        assert_eq!(eng.context_len(s).unwrap(), 0);
        assert_eq!(eng.kv_store(s, 0, 0).unwrap().len(), 0);
        // ...so a corrected retry starts from a clean session, and fills
        // every (layer, kv_head) store.
        eng.prefill(s, &[1, 2, 3, 4]).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 4);
        for layer in 0..eng.config().num_layers {
            for kv_head in 0..eng.config().num_kv_heads {
                assert_eq!(eng.kv_store(s, layer, kv_head).unwrap().len(), 4);
            }
        }
    }

    #[test]
    fn out_of_vocab_token_errors() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        let err = eng.prefill(s, &[9999]).unwrap_err();
        assert!(matches!(err, EngineError::TokenOutOfVocab { .. }));
        assert!(err.to_string().contains("9999"));
    }

    #[test]
    fn context_overflow_is_detected() {
        let mut cfg = ModelConfig::tiny();
        cfg.max_context = 4;
        let mut eng = ServeEngine::builder(cfg)
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        let err = eng.prefill(s, &[1, 2, 3, 4, 5]).unwrap_err();
        assert!(matches!(err, EngineError::ContextOverflow { .. }));
    }

    #[test]
    fn set_next_input_rejects_out_of_vocab_tokens() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3]).unwrap();
        let vocab = eng.config().vocab_size;
        assert!(matches!(
            eng.set_next_input(s, vocab).unwrap_err(),
            EngineError::TokenOutOfVocab { .. }
        ));
        // The pending input is untouched, so decoding still works.
        eng.decode_batch(&[s]).unwrap();
    }

    #[test]
    fn decode_batch_reports_context_overflow_before_any_work() {
        let mut cfg = ModelConfig::tiny();
        cfg.max_context = 5;
        let mut eng = ServeEngine::builder(cfg)
            .synthetic_weights(7)
            .budget(Budget::new(64))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3, 4]).unwrap();
        // One free slot, but the batch asks for two steps of the same
        // session: the overflow must be detected upfront, advancing nothing.
        let err = eng.decode_batch(&[s, s]).unwrap_err();
        assert_eq!(
            err,
            EngineError::ContextOverflow {
                requested: 6,
                max: 5
            }
        );
        assert_eq!(eng.context_len(s).unwrap(), 4, "no session was advanced");
        // A single step still fits.
        eng.decode_batch(&[s]).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 5);
    }

    #[test]
    fn decode_batch_validates_upfront() {
        let mut eng = tiny_serve(64);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(a, &[1, 2, 3]).unwrap();
        // b is not prefilled: the whole batch must fail with no work done.
        assert_eq!(
            eng.decode_batch(&[a, b]).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(eng.context_len(a).unwrap(), 3, "a was not advanced");
    }

    #[test]
    fn decode_batch_advances_each_session_once() {
        let mut eng = tiny_serve(64);
        let ids: Vec<SessionId> = (0..3).map(|_| eng.create_session().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            eng.prefill(id, &[1 + i, 2 + i, 3 + i]).unwrap();
        }
        let outs = eng.decode_batch(&ids).unwrap();
        assert_eq!(outs.len(), 3);
        for (out, &id) in outs.iter().zip(&ids) {
            assert_eq!(out.session, id);
            assert_eq!(eng.context_len(id).unwrap(), 4);
        }
    }

    #[test]
    fn repeated_id_in_batch_advances_twice() {
        let mut eng = tiny_serve(64);
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[5, 6, 7]).unwrap();
        let outs = eng.decode_batch(&[s, s]).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(eng.context_len(s).unwrap(), 5);
    }

    #[test]
    fn set_next_input_overrides_greedy_continuation() {
        let mut a = tiny_serve(512);
        let mut b = tiny_serve(512);
        let sa = a.create_session().unwrap();
        let sb = b.create_session().unwrap();
        a.prefill(sa, &[1, 2, 3, 4]).unwrap();
        b.prefill(sb, &[1, 2, 3, 4]).unwrap();
        let greedy = a.decode_batch(&[sa]).unwrap()[0].next_token;
        // Session b decodes the same step but is then forced onto a token
        // that differs from the greedy continuation.
        b.decode_batch(&[sb]).unwrap();
        let forced = (greedy + 1) % b.config().vocab_size;
        b.set_next_input(sb, forced).unwrap();
        let ya = a.decode_batch(&[sa]).unwrap();
        let yb = b.decode_batch(&[sb]).unwrap();
        // The engines are identical, so any divergence can only come from
        // the forced input token.
        assert_ne!(ya[0].logits, yb[0].logits);
    }

    #[test]
    fn sessions_are_isolated() {
        // Interleaving decode steps of two sessions gives the same streams
        // as running each alone.
        let prompt_a: Vec<usize> = (0..24).map(|i| (i * 3) % 128).collect();
        let prompt_b: Vec<usize> = (0..24).map(|i| (i * 7 + 1) % 128).collect();

        let mut solo = tiny_serve(8);
        let s = solo.create_session().unwrap();
        let alone_a = solo.generate(s, &prompt_a, 6).unwrap();
        let s2 = solo.create_session().unwrap();
        let alone_b = solo.generate(s2, &prompt_b, 6).unwrap();

        let mut eng = tiny_serve(8);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(a, &prompt_a).unwrap();
        eng.prefill(b, &prompt_b).unwrap();
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for _ in 0..6 {
            let outs = eng.decode_batch(&[a, b]).unwrap();
            got_a.push(outs[0].next_token);
            got_b.push(outs[1].next_token);
        }
        assert_eq!(got_a, alone_a);
        assert_eq!(got_b, alone_b);
    }

    fn clusterkv_like_engine(capacity: Bytes) -> ServeEngine {
        // A paged policy without depending on the core crate: exercise the
        // cache through a minimal cluster-shaped selector.
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(PagedTopKFactory))
            .kv_cache_capacity(capacity)
            .build()
            .unwrap()
    }

    /// Test-only paged policy: exact top-k selection reported as one
    /// four-token-aligned page per selected token group.
    struct PagedTopKSelector {
        inner: crate::policy::OracleTopKSelector,
    }

    impl TokenSelector for PagedTopKSelector {
        fn name(&self) -> &str {
            "PagedTopK"
        }
        fn observe(&mut self, event: ObserveEvent<'_>) {
            self.inner.observe(event);
        }
        fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
            let plan = self.inner.plan(request);
            if request.budget.covers(request.num_tokens) {
                return plan;
            }
            let pages: Vec<crate::policy::PageRequest> = plan
                .indices
                .iter()
                .map(|&t| crate::policy::PageRequest::new(t / 4, 4))
                .collect();
            let stats = plan.stats;
            SelectionPlan::new(plan.indices)
                .with_stats(stats)
                .with_pages(pages)
        }
    }

    struct PagedTopKFactory;

    impl SelectorFactory for PagedTopKFactory {
        fn name(&self) -> &str {
            "PagedTopK"
        }
        fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
            Box::new(PagedTopKSelector {
                inner: crate::policy::OracleTopKSelector::new(ctx.head_dim),
            })
        }
    }

    #[test]
    fn residency_changes_accounting_but_never_token_streams() {
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 1) % 128).collect();
        let run = |capacity: Bytes| {
            let mut eng = clusterkv_like_engine(capacity);
            let s = eng.create_session().unwrap();
            let stream = eng.generate(s, &prompt, 8).unwrap();
            (stream, eng.release(s).unwrap())
        };
        let (cold_stream, cold) = run(Bytes(0));
        let (warm_stream, warm) = run(Bytes(1 << 20));
        assert_eq!(warm_stream, cold_stream, "residency must not change tokens");
        assert_eq!(cold.stats.cache.hits, 0, "no cache, no hits");
        assert!(cold.stats.cache.misses > 0);
        assert!(warm.stats.cache.hits > 0);
        assert!(
            warm.bytes_recalled() < cold.bytes_recalled(),
            "cache must reduce PCIe traffic: {} vs {}",
            warm.bytes_recalled(),
            cold.bytes_recalled()
        );
        assert!(
            warm.modeled_decode_time < cold.modeled_decode_time,
            "misses must cost transfer time: {} vs {}",
            warm.modeled_decode_time,
            cold.modeled_decode_time
        );
        assert!(warm.cache_hit_rate() > cold.cache_hit_rate());
    }

    #[test]
    fn backing_store_tracks_the_full_kv_size() {
        let mut eng = clusterkv_like_engine(Bytes(1 << 16));
        let s = eng.create_session().unwrap();
        let prompt: Vec<usize> = (0..24).map(|i| (i * 3) % 128).collect();
        eng.prefill(s, &prompt).unwrap();
        eng.decode_batch(&[s, s]).unwrap();
        let cache = eng.session_cache(s).unwrap();
        let expected = 26 * eng.config().kv_bytes_per_token();
        assert_eq!(cache.cpu().used(), Bytes(expected));
        assert!(cache.resident_bytes() <= cache.capacity());
    }

    #[test]
    fn resident_policies_keep_the_cache_empty() {
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(FullAttentionFactory))
            .kv_cache_capacity(Bytes(1 << 20))
            .build()
            .unwrap();
        assert_eq!(eng.kv_cache_capacity(), Bytes(1 << 20));
        let s = eng.create_session().unwrap();
        eng.generate(s, &[1, 2, 3, 4, 5, 6], 4).unwrap();
        let cache = eng.session_cache(s).unwrap();
        assert_eq!(cache.resident_pages(), 0, "FullKV never pages");
        let report = eng.release(s).unwrap();
        assert_eq!(report.stats.cache.total(), 0);
        assert_eq!(report.bytes_recalled(), Bytes(0));
        assert!(report.modeled_decode_time.get() > 0.0);
    }

    #[test]
    fn modeled_decode_time_grows_with_each_step() {
        let mut eng = clusterkv_like_engine(Bytes(1 << 20));
        let s = eng.create_session().unwrap();
        eng.prefill(s, &(0..16).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            eng.modeled_decode_time(s).unwrap(),
            Seconds::zero(),
            "prefill charges no decode time"
        );
        eng.decode_batch(&[s]).unwrap();
        let after_one = eng.modeled_decode_time(s).unwrap();
        assert!(after_one.get() > 0.0);
        eng.decode_batch(&[s]).unwrap();
        assert!(eng.modeled_decode_time(s).unwrap() > after_one);
    }

    #[test]
    fn decode_workspaces_reach_steady_state() {
        // The per-head workspaces (and projection/concat scratch) grow while
        // the first decode steps size them, then stop: steady-state decode
        // reuses the same buffers every step instead of allocating.
        let mut eng = tiny_serve(8);
        let s = eng.create_session().unwrap();
        let prompt: Vec<usize> = (0..24).map(|i| (i * 3 + 1) % 128).collect();
        eng.prefill(s, &prompt).unwrap();
        // Warm-up: a few steps let every buffer reach its working size.
        for _ in 0..4 {
            eng.decode_batch(&[s]).unwrap();
        }
        let warm = eng.session_workspace_bytes(s).unwrap();
        assert!(warm > 0, "workspaces are in use");
        for _ in 0..12 {
            eng.decode_batch(&[s]).unwrap();
        }
        assert_eq!(
            eng.session_workspace_bytes(s).unwrap(),
            warm,
            "steady-state decode must not grow the workspaces"
        );
    }

    #[test]
    fn stats_accumulate_per_session() {
        let mut eng = tiny_serve(4);
        let a = eng.create_session().unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(a, &[1, 2, 3, 4, 5, 6]).unwrap();
        eng.prefill(b, &[1, 2, 3, 4, 5, 6]).unwrap();
        eng.decode_batch(&[a]).unwrap();
        let sa = eng.session_stats(a).unwrap();
        let sb = eng.session_stats(b).unwrap();
        assert!(sa.scored_vectors > 0, "a decoded and accumulated stats");
        assert_eq!(sb.scored_vectors, 0, "b never decoded");
    }

    #[test]
    fn decode_step_matches_single_session_decode_batch() {
        // `decode_step` is `set_next_input` plus `decode_batch(&[id])`: two
        // identical engines driven one way each give the same outputs,
        // accounting and errors.
        let mut cfg = ModelConfig::tiny();
        cfg.max_context = 8;
        let build = || {
            ServeEngine::builder(cfg)
                .synthetic_weights(7)
                .budget(Budget::new(4))
                .policy(Box::new(OracleTopKFactory))
                .build()
                .unwrap()
        };
        let (mut step, mut batch) = (build(), build());
        let a = step.create_session().unwrap();
        let b = batch.create_session().unwrap();
        assert_eq!(
            step.decode_step(a, 1).unwrap_err(),
            EngineError::NotPrefilled
        );
        assert_eq!(
            batch.decode_batch(&[b]).unwrap_err(),
            EngineError::NotPrefilled
        );
        step.prefill(a, &[1, 2, 3, 4, 5]).unwrap();
        batch.prefill(b, &[1, 2, 3, 4, 5]).unwrap();
        // The last prompt token is the pending input of the first step.
        let mut token = 5;
        for _ in 0..3 {
            let x = step.decode_step(a, token).unwrap();
            let y = batch.decode_batch(&[b]).unwrap().remove(0);
            assert_eq!(x.next_token, y.next_token);
            assert_eq!(x.logits, y.logits);
            assert_eq!(x.hidden, y.hidden);
            token = x.next_token;
        }
        assert_eq!(step.session_stats(a), batch.session_stats(b));
        assert_eq!(
            step.modeled_decode_time(a).unwrap().get().to_bits(),
            batch.modeled_decode_time(b).unwrap().get().to_bits()
        );
        // 5 prompt + 3 generated tokens fill the context.
        let overflow = EngineError::ContextOverflow {
            requested: 9,
            max: 8,
        };
        assert_eq!(step.decode_step(a, token).unwrap_err(), overflow);
        assert_eq!(batch.decode_batch(&[b]).unwrap_err(), overflow);
        step.release(a).unwrap();
        batch.release(b).unwrap();
        assert_eq!(
            step.decode_step(a, token).unwrap_err(),
            EngineError::UnknownSession(a)
        );
        assert_eq!(
            batch.decode_batch(&[b]).unwrap_err(),
            EngineError::UnknownSession(b)
        );
    }

    #[test]
    fn oracle_with_large_budget_matches_full_attention() {
        // When the budget covers the whole context, top-k selection selects
        // everything and generation must match full attention exactly.
        let mut full = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(512))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let mut oracle = tiny_serve(512);
        let (f, o) = (
            full.create_session().unwrap(),
            oracle.create_session().unwrap(),
        );
        let prompt = [5, 9, 13, 17, 21, 25];
        assert_eq!(
            full.generate(f, &prompt, 5).unwrap(),
            oracle.generate(o, &prompt, 5).unwrap()
        );
    }

    #[test]
    fn trace_records_selected_and_full_weights() {
        let mut eng = tiny_serve(3);
        let s = eng.create_session().unwrap();
        eng.enable_trace(s, 1, 0).unwrap();
        eng.prefill(s, &[2, 4, 6, 8, 10, 12]).unwrap();
        eng.decode_step(s, 1).unwrap();
        eng.decode_step(s, 1).unwrap();
        let trace = eng.trace(s, 1, 0).unwrap();
        assert_eq!(trace.len(), 2);
        // At the first decode step the context has the 6 prompt tokens plus
        // the token being generated (which always attends to itself).
        assert_eq!(trace.steps[0].full_weights.len(), 7);
        assert!(trace.steps[0].selected.contains(&6));
        assert!(trace.steps[0].selected.len() <= 4); // budget 3 + current token
    }

    #[test]
    fn dense_layers_ignore_budget() {
        let mut cfg = ModelConfig::tiny();
        cfg.dense_layers = 1;
        let mut eng = ServeEngine::builder(cfg)
            .synthetic_weights(7)
            .budget(Budget::new(2))
            .policy(Box::new(OracleTopKFactory))
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        eng.enable_trace(s, 0, 0).unwrap(); // dense layer
        eng.enable_trace(s, 1, 0).unwrap(); // selective layer
        eng.prefill(s, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        eng.decode_batch(&[s]).unwrap();
        // The dense layer attends to the full context (9 tokens including
        // the current one) while the selective layer respects the budget of
        // 2 tokens plus the always-attended current token.
        assert_eq!(eng.trace(s, 0, 0).unwrap().steps[0].selected.len(), 9);
        assert_eq!(eng.trace(s, 1, 0).unwrap().steps[0].selected.len(), 3);
    }

    fn tiny_serve_with_prefix(budget: usize) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(budget))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(1 << 20))
            .build()
            .unwrap()
    }

    #[test]
    fn prefix_reuse_is_byte_identical_to_cold_sessions() {
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 3) % 128).collect();
        let mut cold = tiny_serve(8);
        let c = cold.create_session().unwrap();
        cold.prefill(c, &prompt).unwrap();
        let cold_stream: Vec<usize> = (0..8)
            .map(|_| cold.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();

        let mut eng = tiny_serve_with_prefix(8);
        // First session sees a cold store: nothing fast-pathed, but the
        // prompt gets donated at seal.
        let a = eng.create_session().unwrap();
        let last_a = eng.prefill(a, &prompt).unwrap();
        let (matched_a, fast_a) = eng.session_prefix_tokens(a).unwrap();
        assert_eq!(fast_a, 0, "nothing to reuse on a cold store");
        assert_eq!(matched_a, 0);
        let a_stream: Vec<usize> = (0..8)
            .map(|_| eng.decode_batch(&[a]).unwrap()[0].next_token)
            .collect();
        assert_eq!(a_stream, cold_stream, "store-enabled first session");

        // Second session: the whole prompt except the recomputed final
        // token is served from shared pages, and decode is byte-identical.
        let b = eng.create_session().unwrap();
        let last_b = eng.prefill(b, &prompt).unwrap();
        assert_eq!(last_b, last_a, "returned hidden states match exactly");
        let (matched_b, fast_b) = eng.session_prefix_tokens(b).unwrap();
        assert_eq!(fast_b, prompt.len() - 1, "all but the final token reused");
        assert_eq!(matched_b, prompt.len(), "final match credits the prompt");
        let b_stream: Vec<usize> = (0..8)
            .map(|_| eng.decode_batch(&[b]).unwrap()[0].next_token)
            .collect();
        assert_eq!(b_stream, cold_stream, "shared-prefix session diverged");

        let stats = eng.prefix_store_stats().unwrap();
        assert!(stats.hit_tokens as usize >= prompt.len() - 1);
    }

    #[test]
    fn prefix_reuse_is_chunking_invariant() {
        let prompt: Vec<usize> = (0..24).map(|i| (i * 7 + 2) % 128).collect();
        let mut cold = tiny_serve(8);
        let c = cold.create_session().unwrap();
        cold.prefill(c, &prompt).unwrap();
        let cold_stream: Vec<usize> = (0..6)
            .map(|_| cold.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();
        for chunk_size in [1, 3, 7, 24] {
            let mut eng = tiny_serve_with_prefix(8);
            let a = eng.create_session().unwrap();
            eng.prefill(a, &prompt).unwrap();
            let b = eng.create_session().unwrap();
            for chunk in prompt.chunks(chunk_size) {
                eng.prefill_chunk(b, chunk).unwrap();
            }
            eng.finish_prefill(b).unwrap();
            let stream: Vec<usize> = (0..6)
                .map(|_| eng.decode_batch(&[b]).unwrap()[0].next_token)
                .collect();
            assert_eq!(stream, cold_stream, "chunk {chunk_size}: diverged");
            let (matched, fast) = eng.session_prefix_tokens(b).unwrap();
            assert_eq!(matched, prompt.len(), "chunk {chunk_size}");
            // Every chunk recomputes exactly its final token.
            assert_eq!(
                fast,
                prompt.len() - prompt.len().div_ceil(chunk_size),
                "chunk {chunk_size}: fast-path count"
            );
        }
    }

    #[test]
    fn prefix_divergent_prompt_reuses_only_common_part() {
        let shared: Vec<usize> = (0..16).map(|i| (i * 3 + 1) % 128).collect();
        let mut a_prompt = shared.clone();
        a_prompt.extend([40, 41, 42, 43]);
        let mut b_prompt = shared.clone();
        b_prompt.extend([90, 91, 92, 93]);

        let mut cold = tiny_serve(8);
        let c = cold.create_session().unwrap();
        cold.prefill(c, &b_prompt).unwrap();
        let cold_stream: Vec<usize> = (0..6)
            .map(|_| cold.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();

        let mut eng = tiny_serve_with_prefix(8);
        let a = eng.create_session().unwrap();
        eng.prefill(a, &a_prompt).unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(b, &b_prompt).unwrap();
        let (matched, fast) = eng.session_prefix_tokens(b).unwrap();
        assert_eq!(matched, shared.len(), "only the common prefix is shared");
        assert_eq!(fast, shared.len());
        let stream: Vec<usize> = (0..6)
            .map(|_| eng.decode_batch(&[b]).unwrap()[0].next_token)
            .collect();
        assert_eq!(stream, cold_stream, "divergent-suffix session diverged");
    }

    #[test]
    fn prefix_session_reports_split_shared_and_private_bytes() {
        let prompt: Vec<usize> = (0..20).map(|i| (i * 11 + 5) % 128).collect();
        let per_token = ModelConfig::tiny().kv_bytes_per_token();
        let mut eng = tiny_serve_with_prefix(8);
        let a = eng.create_session().unwrap();
        eng.prefill(a, &prompt).unwrap();
        let b = eng.create_session().unwrap();
        eng.prefill(b, &prompt).unwrap();
        for _ in 0..4 {
            eng.decode_batch(&[a, b]).unwrap();
        }
        let ra = eng.release(a).unwrap();
        assert_eq!(ra.shared_prefix_tokens, 0, "first session computed cold");
        assert_eq!(ra.shared_kv_bytes, Bytes(0));
        assert_eq!(
            ra.private_kv_bytes,
            Bytes(ra.context_len as u64 * per_token)
        );
        let rb = eng.release(b).unwrap();
        assert_eq!(rb.shared_prefix_tokens, prompt.len());
        assert_eq!(rb.shared_kv_bytes, Bytes(prompt.len() as u64 * per_token));
        assert_eq!(
            rb.private_kv_bytes,
            Bytes((rb.context_len - prompt.len()) as u64 * per_token)
        );
        assert!(rb.shared_fraction() > 0.0 && rb.shared_fraction() < 1.0);
        // Both sessions released and unpinned: the donated pages stay under
        // the LRU cap, refcount-free, ready for the next session.
        let stats = eng.prefix_store_stats().unwrap();
        assert!(stats.shared_bytes > Bytes(0));
    }

    #[test]
    fn prefix_pin_shrinks_admission_and_survives_release_order() {
        let prompt: Vec<usize> = (0..16).map(|i| (i * 9 + 4) % 128).collect();
        // Zero retention capacity: unpinned zero-refcount pages are evicted
        // immediately, so only b's admission pin can keep them alive.
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(0))
            .build()
            .unwrap();
        assert_eq!(eng.prefix_match_len(&prompt), 0, "cold store");
        let a = eng.create_session().unwrap();
        eng.prefill(a, &prompt).unwrap();
        // After the first seal the whole prompt is pinnable coverage.
        assert_eq!(eng.prefix_match_len(&prompt), prompt.len());
        let b = eng.create_session().unwrap();
        let pinned = eng.pin_session_prefix(b, &prompt).unwrap();
        assert_eq!(pinned, prompt.len());
        // The donor releases first; b's pin keeps the pages alive.
        eng.release(a).unwrap();
        eng.prefill(b, &prompt).unwrap();
        let (_, fast) = eng.session_prefix_tokens(b).unwrap();
        assert_eq!(fast, prompt.len() - 1, "pinned pages stayed resident");
        eng.release(b).unwrap();
    }

    #[test]
    fn prefix_disabled_engine_reports_zero_sharing() {
        let mut eng = tiny_serve(8);
        assert!(!eng.has_prefix_store());
        assert!(eng.prefix_store_stats().is_none());
        assert_eq!(eng.prefix_match_len(&[1, 2, 3]), 0);
        let s = eng.create_session().unwrap();
        assert_eq!(eng.pin_session_prefix(s, &[1, 2, 3]).unwrap(), 0);
        eng.prefill(s, &[1, 2, 3, 4]).unwrap();
        assert_eq!(eng.session_prefix_tokens(s).unwrap(), (0, 0));
        let r = eng.release(s).unwrap();
        assert_eq!(r.shared_prefix_tokens, 0);
        assert_eq!(r.shared_kv_bytes, Bytes(0));
        assert_eq!(r.shared_fraction(), 0.0);
    }

    /// Page size of the block-paged test policy below.
    const TEST_BLOCK: usize = 8;

    /// Test-double policy: selects the most recent `B` tokens and pages the
    /// whole context in fixed [`TEST_BLOCK`]-token blocks, emitting
    /// recall-compressed plans (full block membership) when `compressed` is
    /// set and plain paged plans otherwise — the minimal policy that drives
    /// the engine's compressed recall path without the ClusterKV stack.
    struct BlockPagedSelector {
        n: usize,
        compressed: bool,
    }

    impl BlockPagedSelector {
        fn blocks(&self) -> Vec<CompressedPageRequest> {
            (0..self.n)
                .step_by(TEST_BLOCK)
                .map(|start| {
                    let members: Vec<usize> = (start..(start + TEST_BLOCK).min(self.n)).collect();
                    CompressedPageRequest::new(start / TEST_BLOCK, members)
                })
                .collect()
        }
    }

    impl TokenSelector for BlockPagedSelector {
        fn name(&self) -> &str {
            "BlockPaged"
        }

        fn observe(&mut self, event: ObserveEvent<'_>) {
            match event {
                ObserveEvent::Prefill { keys } => self.n = keys.rows(),
                ObserveEvent::PrefillChunk { start, keys } => self.n = start + keys.rows(),
                ObserveEvent::PrefillDone { total_tokens } => self.n = total_tokens,
                ObserveEvent::Append { position, .. } => self.n = position + 1,
            }
        }

        fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
            let b = request.budget.tokens().min(request.num_tokens);
            let indices: Vec<usize> = (request.num_tokens - b..request.num_tokens).collect();
            let first = indices[0];
            let pages: Vec<CompressedPageRequest> = self
                .blocks()
                .into_iter()
                .filter(|p| *p.members.last().unwrap() >= first)
                .collect();
            let plan = SelectionPlan::new(indices);
            if self.compressed {
                plan.with_compressed_pages(pages)
            } else {
                plan.with_pages(pages.into_iter().map(|p| p.request).collect())
            }
        }

        fn page_table(&self) -> KvResidency {
            let pages = self.blocks();
            if self.compressed {
                KvResidency::Compressed(pages)
            } else {
                KvResidency::Paged(pages.into_iter().map(|p| p.request).collect())
            }
        }
    }

    struct BlockPagedFactory {
        compressed: bool,
    }

    impl SelectorFactory for BlockPagedFactory {
        fn name(&self) -> &str {
            "BlockPaged"
        }

        fn create(&self, _ctx: HeadContext) -> Box<dyn TokenSelector> {
            Box::new(BlockPagedSelector {
                n: 0,
                compressed: self.compressed,
            })
        }
    }

    fn block_paged_engine(
        compressed_plans: bool,
        compression: CompressionConfig,
        capacity: Bytes,
    ) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(BlockPagedFactory {
                compressed: compressed_plans,
            }))
            .kv_cache_capacity(capacity)
            .compression(compression)
            .build()
            .unwrap()
    }

    #[test]
    fn lossless_compressed_recall_matches_the_exact_paged_path() {
        // With a lossless engine config, `attend_compressed` reconstructs
        // the identity, so a policy emitting recall-compressed plans decodes
        // the exact same token stream as its recall-exact twin.
        let prompt: Vec<usize> = (0..30).map(|i| (i * 11 + 3) % 128).collect();
        let run = |compressed_plans: bool| {
            let mut eng =
                block_paged_engine(compressed_plans, CompressionConfig::lossless(), Bytes(512));
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let stream: Vec<usize> = (0..8)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            (stream, eng.release(s).unwrap())
        };
        let (exact_stream, exact_report) = run(false);
        let (comp_stream, comp_report) = run(true);
        assert_eq!(comp_stream, exact_stream, "lossless must be byte-identical");
        // A lossless cache never demotes, so the compressed tier stays idle
        // on both paths.
        assert_eq!(comp_report.compression, CompressionStats::default());
        assert_eq!(comp_report.compression_ratio(), 0.0);
        assert_eq!(exact_report.compression, CompressionStats::default());
    }

    #[test]
    fn compressed_tier_decodes_end_to_end_under_memory_pressure() {
        // Small cache + int8 tier: evictions demote pages to the compressed
        // tier, compressed recalls flow through `attend_compressed`, and the
        // report carries the byte accounting.
        let prompt: Vec<usize> = (0..40).map(|i| (i * 7 + 5) % 128).collect();
        let mut eng = block_paged_engine(true, CompressionConfig::int8(), Bytes(600));
        let s = eng.create_session().unwrap();
        eng.prefill(s, &prompt).unwrap();
        for _ in 0..10 {
            eng.decode_batch(&[s]).unwrap();
        }
        let report = eng.release(s).unwrap();
        assert!(
            report.compression.demotions > 0,
            "capacity pressure must demote pages: {:?}",
            report.compression
        );
        assert!(
            report.compression_ratio() > 1.0,
            "int8 demotions shrink bytes: {}",
            report.compression_ratio()
        );
        assert!(!report.compression_ratio().is_nan());
        assert!(report.generated_tokens == 10);
        assert!(report.modeled_decode_time > Seconds(0.0));
    }

    fn prefetch_engine(capacity: Bytes, prefetch: PrefetchConfig) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(PagedTopKFactory))
            .kv_cache_capacity(capacity)
            .prefetch(prefetch)
            .build()
            .unwrap()
    }

    #[test]
    fn prefetch_changes_accounting_but_never_token_streams() {
        // The tentpole invariant (DESIGN.md §10): prefetch only changes
        // *when* bytes move. Streams, hit rates and recalled bytes must be
        // identical with prefetch off, staging without overlap pricing, and
        // the full overlap clock; the staging-only probe must additionally
        // reproduce the prefetch-off modeled clock bit for bit.
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 1) % 128).collect();
        let capacity = Bytes(512); // tight: most selected pages miss
        let run = |prefetch: PrefetchConfig| {
            let mut eng = prefetch_engine(capacity, prefetch);
            let s = eng.create_session().unwrap();
            let stream = eng.generate(s, &prompt, 8).unwrap();
            (stream, eng.release(s).unwrap())
        };
        let (off_stream, off) = run(PrefetchConfig::disabled());
        let (probe_stream, probe) = run(PrefetchConfig::staging_only(Bytes(1 << 20)));
        let (on_stream, on) = run(PrefetchConfig::reuse_last(Bytes(1 << 20)));

        assert_eq!(probe_stream, off_stream, "staging must not change tokens");
        assert_eq!(on_stream, off_stream, "overlap must not change tokens");
        for report in [&probe, &on] {
            assert_eq!(report.stats.cache, off.stats.cache, "hit rates differ");
            assert_eq!(
                report.bytes_recalled(),
                off.bytes_recalled(),
                "recalled bytes differ"
            );
        }
        assert_eq!(
            probe.modeled_decode_time.get().to_bits(),
            off.modeled_decode_time.get().to_bits(),
            "without overlap pricing the clock is bit-identical to prefetch off"
        );

        // Reuse-last on a slowly drifting top-k set stages pages the next
        // step actually demands: the staging buffer sees real promotions.
        assert!(on.prefetch.staged_pages > 0, "nothing was staged");
        assert!(on.prefetch.used_pages > 0, "nothing was promoted");
        let accuracy = on.prefetch_accuracy();
        assert!(accuracy > 0.0 && accuracy <= 1.0, "accuracy {accuracy}");
        assert_eq!(probe.prefetch.staged_pages, on.prefetch.staged_pages);
        // Off-engine prefetch accounting stays all-zero.
        assert_eq!(off.prefetch, PrefetchStats::new());
        assert_eq!(off.prefetch_accuracy(), 0.0);
        assert_eq!(off.hidden_transfer_fraction(), 0.0);
        assert_eq!(off.hidden_transfer_time, Seconds::zero());
        // The overlap clock hides staged transfer behind compute; demand
        // promoted out of the staging buffer can only shrink the step, so
        // the demand-side transfer total never grows.
        let hidden = on.hidden_transfer_fraction();
        assert!(hidden > 0.0 && hidden <= 1.0, "hidden fraction {hidden}");
        assert!(on.hidden_transfer_time.get() > 0.0);
        assert!(on.transfer_time >= on.hidden_transfer_time);
    }

    #[test]
    fn prefetch_step_byte_cap_throttles_staging() {
        let prompt: Vec<usize> = (0..24).map(|i| (i * 3 + 2) % 128).collect();
        let run = |prefetch: PrefetchConfig| {
            let mut eng = prefetch_engine(Bytes(512), prefetch);
            let s = eng.create_session().unwrap();
            let stream = eng.generate(s, &prompt, 6).unwrap();
            let times = eng.session_transfer_times(s).unwrap();
            (stream, eng.session_prefetch_stats(s).unwrap(), times)
        };
        let free = PrefetchConfig::reuse_last(Bytes(1 << 20));
        let (choked, choked_stats, _) = run(free.with_step_bytes(Bytes(0)));
        assert_eq!(
            choked_stats,
            PrefetchStats::new(),
            "a zero per-step budget stages nothing"
        );
        let (free_stream, free_stats, (hidden, total)) = run(free);
        assert!(free_stats.staged_pages > 0);
        assert!(total >= hidden);
        assert_eq!(choked, free_stream, "step budget must not change tokens");
    }

    #[test]
    fn session_report_prefetch_ratios_are_zero_not_nan_for_empty_sessions() {
        // Satellite guard (PR 8 convention): zero staged bytes and zero
        // transfer time must report 0.0 ratios, never NaN — both for a
        // session released untouched and for a prefetch-enabled engine
        // whose sessions never staged.
        let mut eng = prefetch_engine(Bytes(512), PrefetchConfig::lookahead(Bytes(1 << 16)));
        let s = eng.create_session().unwrap();
        let r = eng.release(s).unwrap();
        assert_eq!(r.prefetch_accuracy(), 0.0);
        assert_eq!(r.hidden_transfer_fraction(), 0.0);
        assert!(!r.prefetch_accuracy().is_nan());
        assert!(!r.hidden_transfer_fraction().is_nan());
        // A full-attention session decodes without ever staging: same guard.
        let mut full = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(FullAttentionFactory))
            .prefetch(PrefetchConfig::reuse_last(Bytes(1 << 16)))
            .build()
            .unwrap();
        let s = full.create_session().unwrap();
        full.generate(s, &[1, 2, 3], 2).unwrap();
        let r = full.release(s).unwrap();
        assert_eq!(r.prefetch_accuracy(), 0.0);
        assert_eq!(r.hidden_transfer_fraction(), 0.0);
    }

    #[test]
    fn session_report_ratios_are_zero_not_nan_for_empty_sessions() {
        // Satellite guard: a session released before any token is forwarded
        // has zero tokens, zero cache traffic and zero compressed bytes —
        // every ratio accessor must report 0.0, never NaN.
        let mut eng = tiny_serve(8);
        let s = eng.create_session().unwrap();
        let r = eng.release(s).unwrap();
        assert_eq!(r.context_len, 0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.shared_fraction(), 0.0);
        assert_eq!(r.compression_ratio(), 0.0);
        assert!(!r.cache_hit_rate().is_nan());
        assert!(!r.shared_fraction().is_nan());
        assert!(!r.compression_ratio().is_nan());
        // A resident-policy session that did run also keeps the paging
        // ratios at 0.0 (it never touched the cache or the tier).
        let mut full = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(FullAttentionFactory))
            .build()
            .unwrap();
        let s = full.create_session().unwrap();
        full.generate(s, &[1, 2, 3], 2).unwrap();
        let r = full.release(s).unwrap();
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.compression_ratio(), 0.0);
        assert!(r.shared_fraction() == 0.0 && !r.shared_fraction().is_nan());
    }

    #[test]
    fn prefix_pin_churn_leaves_no_leaked_pins() {
        // Satellite regression: create/pin/prefill/decode/release churn, in
        // both release orders, against a zero-retention store. Any pin the
        // engine failed to release would keep nodes alive (zero-refcount
        // nodes are evicted immediately at `Bytes(0)` capacity); any
        // double-unpin would panic on refcount underflow.
        let prompt: Vec<usize> = (0..16).map(|i| (i * 9 + 4) % 128).collect();
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(0))
            .build()
            .unwrap();
        for round in 0..4 {
            let a = eng.create_session().unwrap();
            let b = eng.create_session().unwrap();
            // Pin before prefill (admission-control order); b re-pins after
            // a's seal when coverage exists, exercising the pin swap.
            eng.pin_session_prefix(a, &prompt).unwrap();
            eng.prefill(a, &prompt).unwrap();
            eng.pin_session_prefix(b, &prompt).unwrap();
            eng.prefill(b, &prompt).unwrap();
            for _ in 0..2 {
                eng.decode_batch(&[a, b]).unwrap();
            }
            // Alternate release orders across rounds.
            let (first, second) = if round % 2 == 0 { (a, b) } else { (b, a) };
            eng.release(first).unwrap();
            eng.release(second).unwrap();
            let stats = eng.prefix_store_stats().unwrap();
            assert_eq!(
                stats.nodes, 0,
                "round {round}: all pins released ⇒ zero-retention store empties"
            );
            assert_eq!(stats.shared_bytes, Bytes(0), "round {round}");
        }
    }

    /// An engine with a real cluster cache and a fault plan: the paged
    /// test policy keeps the cache in play (resident pages give corruption
    /// a target) while a small budget keeps demand transfers flowing (so
    /// retries have traffic to re-send).
    fn tiny_faulty(budget: usize, plan: FaultPlan) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(budget))
            .policy(Box::new(PagedTopKFactory))
            .kv_cache_capacity(Bytes(1 << 16))
            .faults(plan)
            .build()
            .unwrap()
    }

    #[test]
    fn faults_never_change_token_streams() {
        // The central robustness invariant (DESIGN.md §11): fault injection
        // adds modeled time and checksum churn but the decoded stream is
        // byte-identical to the faults-off run, at every fault rate.
        let prompt: Vec<usize> = (0..24).map(|i| (i * 7 + 5) % 128).collect();
        let mut clean = tiny_faulty(6, FaultPlan::disabled());
        let c = clean.create_session().unwrap();
        clean.prefill(c, &prompt).unwrap();
        let clean_stream: Vec<usize> = (0..8)
            .map(|_| clean.decode_batch(&[c]).unwrap()[0].next_token)
            .collect();
        let clean_report = clean.release(c).unwrap();
        assert_eq!(clean_report.integrity, IntegrityStats::default());

        for rate in [0.05, 0.2, 0.6] {
            let mut eng = tiny_faulty(6, FaultPlan::uniform(11, rate));
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let stream: Vec<usize> = (0..8)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            assert_eq!(stream, clean_stream, "rate {rate}: stream diverged");
            let report = eng.release(s).unwrap();
            // Faults only ever add modeled time.
            assert!(
                report.modeled_decode_time.get() >= clean_report.modeled_decode_time.get(),
                "rate {rate}: faults made the modeled clock run backwards"
            );
            assert_eq!(
                report.integrity.silent_corruptions(),
                0,
                "rate {rate}: an injected corruption escaped the scrub"
            );
            assert_eq!(
                report.integrity.corruptions_repaired, report.integrity.corruptions_detected,
                "rate {rate}: a detected corruption was not repaired"
            );
        }
    }

    #[test]
    fn fault_schedules_are_bit_identical_across_runs() {
        let prompt: Vec<usize> = (0..20).map(|i| (i * 3 + 2) % 128).collect();
        let run = || {
            let mut eng = tiny_faulty(6, FaultPlan::uniform(42, 0.4));
            let s = eng.create_session().unwrap();
            eng.prefill(s, &prompt).unwrap();
            let stream: Vec<usize> = (0..6)
                .map(|_| eng.decode_batch(&[s]).unwrap()[0].next_token)
                .collect();
            let report = eng.release(s).unwrap();
            (
                stream,
                report.integrity,
                report.modeled_decode_time.get().to_bits(),
            )
        };
        let (s1, i1, t1) = run();
        let (s2, i2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(i1, i2, "integrity accounting must be deterministic");
        assert_eq!(t1, t2, "modeled time must be bit-identical across runs");
        // A high uniform rate over 6 decode steps with live demand traffic
        // must actually fire: a plan that never injects is a broken plan.
        assert!(i1.transfer_retries > 0, "no retries at rate 0.4");
        assert!(i1.backoff_seconds > 0.0, "retries must charge backoff");
    }

    #[test]
    fn injected_corruptions_are_detected_and_repaired() {
        let prompt: Vec<usize> = (0..24).map(|i| (i * 5 + 1) % 128).collect();
        // corruption_rate = 0.45: fires on roughly half the decode steps.
        let mut eng = tiny_faulty(6, FaultPlan::uniform(3, 0.9));
        let s = eng.create_session().unwrap();
        eng.prefill(s, &prompt).unwrap();
        for _ in 0..10 {
            eng.decode_batch(&[s]).unwrap();
        }
        let integrity = eng.integrity_stats(s).unwrap();
        eng.release(s).unwrap();
        assert!(
            integrity.corruptions_injected > 0,
            "corruption never fired at rate 0.45 over 10 steps"
        );
        assert_eq!(
            integrity.corruptions_detected, integrity.corruptions_injected,
            "every injected corruption must be caught by the scrub"
        );
        assert_eq!(
            integrity.corruptions_repaired, integrity.corruptions_detected,
            "every detected corruption must be repaired"
        );
        assert_eq!(integrity.silent_corruptions(), 0);
        assert!(integrity.verifications > 0);
    }

    #[test]
    fn prefix_adoption_verifies_and_repairs_shared_pages() {
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 3) % 128).collect();
        // Donate with a clean engine, adopt with corruption firing at
        // nearly every adoption decision.
        let plan = FaultPlan {
            corruption_rate: 0.9,
            ..FaultPlan::disabled().with_seed(5)
        };
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(8))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(1 << 20))
            .faults(plan)
            .build()
            .unwrap();
        let donor = eng.create_session().unwrap();
        eng.prefill(donor, &prompt).unwrap();
        let donor_stream: Vec<usize> = (0..4)
            .map(|_| eng.decode_batch(&[donor]).unwrap()[0].next_token)
            .collect();

        let adopter = eng.create_session().unwrap();
        eng.prefill(adopter, &prompt).unwrap();
        let adopter_stream: Vec<usize> = (0..4)
            .map(|_| eng.decode_batch(&[adopter]).unwrap()[0].next_token)
            .collect();
        assert_eq!(
            adopter_stream, donor_stream,
            "adoption-time corruption must never reach the adopted rows"
        );
        let integrity = eng.integrity_stats(adopter).unwrap();
        assert!(
            integrity.verifications > 0,
            "adoption must verify shared-page seals"
        );
        assert!(
            integrity.corruptions_injected > 0,
            "corruption never fired at rate 0.9 across adopted pages"
        );
        assert_eq!(
            integrity.corruptions_detected,
            integrity.corruptions_injected
        );
        assert_eq!(
            integrity.corruptions_repaired,
            integrity.corruptions_detected
        );
        eng.release(adopter).unwrap();
        eng.release(donor).unwrap();
    }

    #[test]
    fn degradation_hooks_are_safe_no_ops_without_their_tiers() {
        // Without a staging buffer there is nothing to shed; under a
        // lossless config there is nothing to demote. Both hooks must be
        // callable unconditionally by the scheduler's pressure ladder.
        let mut eng = tiny_faulty(6, FaultPlan::disabled());
        let s = eng.create_session().unwrap();
        eng.prefill(s, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        eng.decode_batch(&[s]).unwrap();
        assert_eq!(eng.shed_staging(s).unwrap(), Bytes(0));
        assert_eq!(eng.demote_session(s).unwrap(), 0);
        let ghost = SessionId(999);
        assert!(matches!(
            eng.shed_staging(ghost),
            Err(EngineError::UnknownSession(_))
        ));
        assert!(matches!(
            eng.demote_session(ghost),
            Err(EngineError::UnknownSession(_))
        ));
        // The stream is unaffected by ladder pokes.
        let next = eng.decode_batch(&[s]).unwrap()[0].next_token;
        let mut clean = tiny_faulty(6, FaultPlan::disabled());
        let c = clean.create_session().unwrap();
        clean.prefill(c, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        clean.decode_batch(&[c]).unwrap();
        assert_eq!(clean.decode_batch(&[c]).unwrap()[0].next_token, next);
    }

    #[test]
    fn builder_rejects_invalid_fault_plans() {
        let mut plan = FaultPlan::disabled();
        plan.corruption_rate = 1.5;
        assert!(matches!(
            ServeEngine::builder(ModelConfig::tiny())
                .faults(plan)
                .build(),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
