//! Synthetic workloads and accuracy proxies for the ClusterKV experiments.
//!
//! The paper evaluates on LongBench (eight datasets), PG19 language
//! modelling and NarrativeQA traces, with pretrained 8–9 B parameter models.
//! Neither the datasets nor the checkpoints are available in this
//! environment, so this crate provides synthetic substitutes that exercise
//! the same code paths and preserve the properties the experiments measure
//! (see DESIGN.md §2):
//!
//! * [`semantic`] — a generator of per-head attention episodes: keys with
//!   clustered (topical) structure, attention sinks, outlier channels and
//!   queries whose topical focus drifts across decoding steps (the dynamic
//!   importance of Fig. 3a).
//! * [`harness`] — runs any [`TokenSelector`](clusterkv_model::TokenSelector)
//!   over an episode and records recall rates, attention-output errors,
//!   selected sets and, through a compressing
//!   [`ClusterCache`](clusterkv_kvcache::cluster_cache::ClusterCache), the
//!   reconstruction error and byte tallies of the compressed KV tier
//!   (DESIGN.md §9); every accuracy-style figure and `exp_quality`'s
//!   quality-vs-memory frontier are built on this one decode loop. It also
//!   hosts [`generate_traffic`], the deterministic open-loop request trace
//!   generator the serving experiments feed into
//!   `clusterkv_sched::Scheduler`.
//! * [`longbench`] — the eight LongBench dataset profiles and the mapping
//!   from measured retrieval quality to an F1 / ROUGE-L-style score.
//! * [`language_modeling`] — the PG19 perplexity proxy: perplexity as a
//!   monotone function of missed recall and reconstruction error.

#![warn(missing_docs)]

pub mod harness;
pub mod language_modeling;
pub mod longbench;
pub mod semantic;

pub use harness::{
    generate_traffic, run_budget_sweep, run_episode, run_episode_cached, EpisodeResult,
    ReuseDistanceHistogram, TrafficConfig,
};
pub use language_modeling::perplexity_proxy;
pub use longbench::{LongBenchDataset, LongBenchProfile, ScoreMetric};
pub use semantic::{Episode, EpisodeConfig};
